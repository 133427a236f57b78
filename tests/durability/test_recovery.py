"""Crash-recovery tests at the Database level: open, replay, snapshots
taken when asked."""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.durability.manager import DurabilityConfig, has_durable_state
from repro.durability.record import WalRecord
from repro.durability.recovery import RecoveryError
from repro.durability.wal import SEGMENT_HEADER
from repro.durability.faults import FaultInjector
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection

ROWS = 400
DOMAIN = 10_000


def make_database(data_dir, **config):
    rng = np.random.default_rng(7)
    database = Database(
        "durable",
        data_dir=data_dir,
        durability=DurabilityConfig(sync="always", **config),
    )
    database.create_table(
        "facts",
        {
            "key": rng.integers(0, DOMAIN, size=ROWS).astype(np.int64),
            "payload": rng.uniform(0, 100, size=ROWS),
        },
    )
    return database


def run_dml(database, seed=11, steps=40):
    live = list(range(ROWS))
    with database.session(name="writer") as session:
        dml_steps(session, np.random.default_rng(seed), steps, live)
    return live


def dml_steps(session, rng, steps, live):
    """``steps`` random inserts, deletes and updates through ``session``;
    ``live`` holds the visible rowids and follows the changes."""
    for _ in range(steps):
        action = rng.random()
        if action < 0.5 or not live:
            live.append(
                session.insert_row(
                    "facts",
                    {"key": int(rng.integers(0, DOMAIN)), "payload": 0.5},
                )
            )
        elif action < 0.75:
            victim = live.pop(int(rng.integers(0, len(live))))
            session.delete_row("facts", victim)
        else:
            victim = live.pop(int(rng.integers(0, len(live))))
            live.append(
                session.update_row(
                    "facts", victim, {"key": int(rng.integers(0, DOMAIN))}
                )
            )


def assert_same_database(recovered, original):
    assert set(recovered.table_names) == set(original.table_names)
    for table in original.table_names:
        assert (
            recovered.visible_row_count(table)
            == original.visible_row_count(table)
        )
        for name in original.table(table).column_names:
            assert np.array_equal(
                recovered.table(table)[name].values,
                original.table(table)[name].values,
            ), f"{table}.{name} diverged"
        assert np.array_equal(
            recovered.table(table).tombstones, original.table(table).tombstones
        )
    query = Query.range_query("facts", "key", 0, DOMAIN // 2)
    with recovered.session() as replayed, original.session() as lived:
        assert np.array_equal(
            replayed.execute(query).positions, lived.execute(query).positions
        )


class TestOpenRecover:
    def test_journal_only_recovery_matches_pre_crash_state(self, tmp_path):
        database = make_database(tmp_path)
        database.set_indexing("facts", "key", "cracking")
        run_dml(database)
        database.close()  # simulated clean crash: no snapshot was taken

        recovered = Database.open(tmp_path)
        report = recovered.recovery_report
        assert report.snapshot_path is None
        assert report.replayed_total == report.wal_records
        assert report.replayed_operations["create_table"] == 1
        assert_same_database(recovered, database)
        recovered.close()

    def test_snapshot_plus_tail_recovery(self, tmp_path):
        database = make_database(tmp_path)
        database.set_indexing("facts", "key", "cracking")
        run_dml(database, seed=1)
        database.snapshot()
        run_dml(database, seed=2, steps=15)
        database.close()

        recovered = Database.open(tmp_path)
        report = recovered.recovery_report
        assert report.snapshot_path is not None
        # only the post-snapshot tail replays
        assert report.replayed_total < 60
        assert "create_table" not in report.replayed_operations
        assert_same_database(recovered, database)
        recovered.close()

    def test_recovered_database_keeps_journaling(self, tmp_path):
        database = make_database(tmp_path)
        run_dml(database, steps=10)
        database.close()

        recovered = Database.open(tmp_path)
        run_dml(recovered, seed=3, steps=10)
        recovered.close()

        second = Database.open(tmp_path)
        assert_same_database(second, recovered)
        second.close()

    def test_indexing_mode_is_reinstalled(self, tmp_path):
        database = make_database(tmp_path)
        database.set_indexing(
            "facts", "key", "partitioned-cracking", partitions=3
        )
        run_dml(database, steps=10)
        database.snapshot()
        database.close()

        recovered = Database.open(tmp_path)
        assert recovered._modes[("facts", "key")] == "partitioned-cracking"
        assert_same_database(recovered, database)
        recovered.close()

    @pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot"])
    def test_sideways_cracking_survives_a_reopen(self, tmp_path, snapshot):
        """Every physical design is a journaled ``set_indexing`` record, the
        covering one included: the reopened database plans, and answers, as
        the one that was never closed."""
        query = Query(
            table="facts",
            selections=[RangeSelection("key", 2_000, 7_000),
                        RangeSelection("payload", 0.4, 60.0)],
            projections=["payload"],
            aggregates=[Aggregate("payload", "sum")],
        )
        lived = make_database(tmp_path / "lived")
        closed = make_database(tmp_path / "closed")
        for database in (lived, closed):
            database.set_indexing(
                "facts", "key", "sideways-cracking", budget_bytes=50_000
            )
            with database.session() as session:
                session.execute(query)
            run_dml(database, steps=10)
        if snapshot:
            closed.snapshot()
        closed.close()

        reopened = Database.open(tmp_path / "closed")
        assert reopened.indexing_mode("facts", "key") == "sideways-cracking"
        assert reopened._mode_options[("facts", "key")] == {"budget_bytes": 50_000}
        plan = reopened.planner.plan(query)
        assert [step.operator for step in plan.steps] == ["index_select", "aggregate"]
        assert plan.steps[0].columns == ("payload",)
        with reopened.session() as replayed, lived.session() as expected:
            got, want = replayed.execute(query), expected.execute(query)
        assert got.positions.tolist() == want.positions.tolist()
        assert got.columns["payload"].tolist() == want.columns["payload"].tolist()
        assert got.aggregates == want.aggregates
        assert_same_database(reopened, lived)
        reopened.close()
        lived.close()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot"])
    def test_retired_executor_option_is_accepted_and_dropped(
        self, tmp_path, executor, snapshot
    ):
        """Data directories written before the process backend (and the
        ``executor`` option selecting it) was removed still carry the key in
        their ``set_indexing`` records; answers never depended on it."""
        database = make_database(tmp_path)
        database.set_indexing(
            "facts", "key", "partitioned-cracking", partitions=3, parallel=True
        )
        old_options = {"partitions": 3, "parallel": True, "executor": executor}
        if snapshot:
            # only the snapshot carries the old key; the live database goes
            # on with what it was given (it would refuse the key on rebuild)
            current = database._mode_options[("facts", "key")]
            database._mode_options[("facts", "key")] = dict(old_options)
            database.snapshot()
            database._mode_options[("facts", "key")] = current
        else:
            database._durable_schema_record(
                "set_indexing", "facts", column="key",
                mode="partitioned-cracking", options=old_options,
            )
        run_dml(database, steps=10)
        database.close()

        recovered = Database.open(tmp_path)
        assert recovered._modes[("facts", "key")] == "partitioned-cracking"
        assert recovered._mode_options[("facts", "key")] == {
            "partitions": 3, "parallel": True,
        }
        assert recovered.access_path("facts", "key").parallel is True
        assert_same_database(recovered, database)
        recovered.close()

    @pytest.mark.parametrize("mode, options", [
        ("partitioned-cracking", {"partitions": 3, "executor": "process"}),
        ("cracking", {"sort_threshold": 64}),
        ("hybrid-crack-crack", {"radix_bits": 4}),
        ("scan", {"bogus": 1}),
        ("stochastic-cracking", {"size_threshold_fraction": 0.05}),
        ("online", {"decay": 0.9}),
        ("online", {"max_indexes": 1}),
        ("hybrid-sort-sort", {"partition_size": 50}),
    ])
    def test_an_option_the_mode_does_not_take_never_reaches_a_new_journal(
        self, tmp_path, mode, options
    ):
        database = make_database(tmp_path)
        database.set_indexing("facts", "key", "cracking")
        records = database.durability.stats()["appended_records"]
        with pytest.raises(ValueError, match="takes no option"):
            database.set_indexing("facts", "key", mode, **options)
        # refused before anything was recorded: mode, options and journal
        assert database._modes[("facts", "key")] == "cracking"
        assert database._mode_options[("facts", "key")] == {}
        assert database.durability.stats()["appended_records"] == records
        database.close()

    @pytest.mark.parametrize("refused", [
        ("cracking", {"sort_threshold": 64}),
        ("online", {"build_threshold_factor": -1}),
    ])
    def test_refused_set_indexing_leaves_the_installed_path_intact(
        self, tmp_path, refused, pooled_fan_out
    ):
        mode, options = refused
        database = make_database(tmp_path)
        database.set_indexing("facts", "key", "full-index")
        installed = database.access_path("facts", "key")
        design = database.physical_design_report()
        assert [record["nbytes"] for record in design] == [installed.nbytes]
        with pytest.raises(ValueError):
            database.set_indexing("facts", "key", mode, **options)
        assert database.access_path("facts", "key") is installed
        assert database.physical_design_report() == design

        # a fan-out pool must survive the refusal too: the old path is
        # released only after its replacement exists
        database.set_indexing(
            "facts", "key", "partitioned-cracking",
            partitions=2, parallel=True, max_workers=2,
        )
        pooled = database.access_path("facts", "key")
        with database.session() as session:
            session.execute(Query.range_query("facts", "key", 10, 5_000))
        pool = pooled._pool
        assert pool is not None
        with pytest.raises(ValueError):
            database.set_indexing("facts", "key", mode, **options)
        assert database.access_path("facts", "key") is pooled
        assert pooled._pool is pool
        pool.submit(lambda: None).result(timeout=10)  # still accepting work
        database.close()

    @pytest.mark.parametrize("retired, kept", [
        (("cracking-sort-pieces", {"sort_threshold": 128}), ("cracking", {})),
        (("cracking", {"sort_threshold": 64}), ("cracking", {})),
        (("hybrid-crack-radix", {"radix_bits": 4}), ("hybrid-crack-crack", {})),
        (("hybrid-radix-radix", {"partition_size": 50, "radix_bits": 3}),
         ("hybrid-crack-crack", {})),
        (("stochastic-cracking", {"variant": "ddc", "size_threshold_fraction": 0.05}),
         ("stochastic-cracking", {"variant": "ddc"})),
        (("online", {"build_threshold_factor": 2.0, "decay": 0.9}),
         ("online", {"build_threshold_factor": 2.0})),
        (("online", {"max_indexes": 0}), ("online", {})),
        (("hybrid-sort-sort", {"partition_size": 50}), ("hybrid-sort-sort", {})),
        (("partitioned-cracking", {"partitions": 3, "parallel": True, "repartition": True,
                                   "max_partition_rows": 500, "split_threshold": 1.5}),
         ("partitioned-cracking", {"partitions": 3, "parallel": True})),
        (("partitioned-updatable-cracking",
          {"partitions": 3, "parallel": True, "repartition": True,
           "max_partition_rows": 500, "split_threshold": 1.5}),
         ("updatable-cracking", {})),
        (("partitioned-updatable-cracking",
          {"partitions": 3, "parallel": True, "policy": "gradual", "merge_batch": 8}),
         ("updatable-cracking", {"policy": "gradual", "merge_batch": 8})),
    ], ids=["sort-pieces", "sort-threshold", "crack-radix", "radix-radix",
            "size-threshold-fraction", "decay", "max-indexes", "partition-size",
            "repartition", "repartition-updatable", "partitioned-updatable"])
    @pytest.mark.parametrize("snapshot", ["wal", "snapshot", "snapshot-tombstones"])
    def test_retired_modes_reopen_as_the_name_that_answers_the_same(
        self, tmp_path, retired, kept, snapshot
    ):
        """Data directories written before sorted small pieces, the radix
        hybrids, the four options only tests set, adaptive repartitioning
        and the partitioned updatable column were removed carry those names
        and options in their ``set_indexing`` records; they reopen under
        the kept name with the options that remain.  A snapshot taken after
        the DML holds tombstones, which the kept path re-absorbs."""
        database = make_database(tmp_path)
        database.set_indexing("facts", "key", kept[0], **kept[1])
        mode, options = retired
        if snapshot == "wal":
            database._durable_schema_record(
                "set_indexing", "facts", column="key", mode=mode, options=options,
            )
        if snapshot == "snapshot-tombstones":
            run_dml(database, steps=10)
        if snapshot != "wal":
            key = ("facts", "key")
            installed = database._modes[key], database._mode_options[key]
            database._modes[key], database._mode_options[key] = mode, dict(options)
            database.snapshot()
            database._modes[key], database._mode_options[key] = installed
        if snapshot != "snapshot-tombstones":
            run_dml(database, steps=10)
        database.close()

        recovered = Database.open(tmp_path)
        assert recovered._modes[("facts", "key")] == kept[0]
        assert recovered._mode_options[("facts", "key")] == kept[1]
        table = recovered.table("facts")
        if snapshot == "snapshot-tombstones":
            assert recovered.recovery_report.replayed_total == 0
            assert len(table.tombstones) > 0
        keys = table["key"].values
        with recovered.session() as session:
            for low, high in [(0, DOMAIN), (100, 2_000), (5_000, 5_001), (7_000, DOMAIN)]:
                scan = table.visible_positions(np.flatnonzero((keys >= low) & (keys < high)))
                got = session.execute(Query.range_query("facts", "key", low, high))
                assert sorted(got.positions.tolist()) == scan.tolist()
        recovered.close()

    @pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot"])
    def test_options_that_built_another_names_structure_are_dropped(
        self, tmp_path, snapshot
    ):
        """A name fixes what it names: data directories written while a
        hybrid still took its modes, and ``cracking`` its partition and
        update options, reopen under the same names without them and answer
        the same rows."""
        database = make_database(tmp_path)
        recorded = {
            "key": ("hybrid-crack-crack", {"final_mode": "sort"}),
            "payload": ("cracking", {"partitions": 4, "policy": "gradual"}),
        }
        for column, (mode, options) in recorded.items():
            database.set_indexing("facts", column, mode)
            if snapshot:
                database._mode_options[("facts", column)] = dict(options)
            else:
                database._durable_schema_record(
                    "set_indexing", "facts", column=column, mode=mode, options=options,
                )
        if snapshot:
            database.snapshot()
            for column in recorded:
                database._mode_options[("facts", column)] = {}
        run_dml(database, steps=10)
        database.close()

        recovered = Database.open(tmp_path)
        for column, (mode, _) in recorded.items():
            assert recovered._modes[("facts", column)] == mode
            assert recovered._mode_options[("facts", column)] == {}
        queries = [Query.range_query("facts", "key", low, high)
                   for low, high in [(0, DOMAIN), (100, 2_000), (5_000, 5_001)]]
        queries += [Query.range_query("facts", "payload", low, high)
                    for low, high in [(0.0, 100.0), (10.0, 20.0), (42.5, 42.6)]]
        with recovered.session() as replayed, database.session() as lived:
            for query in queries:
                assert (set(replayed.execute(query).positions.tolist())
                        == set(lived.execute(query).positions.tolist()))
        recovered.close()

    def test_fresh_database_over_durable_state_is_refused(self, tmp_path):
        database = make_database(tmp_path)
        database.close()
        assert has_durable_state(tmp_path)
        with pytest.raises(ValueError, match="Database.open"):
            Database("clobber", data_dir=tmp_path)

    def test_open_without_state_is_a_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            Database.open(tmp_path / "nothing-here")


class TestReplayInRuns:
    @pytest.mark.parametrize("snapshot", [True, False], ids=["snapshot", "journal-only"])
    def test_the_tail_fills_the_room_the_open_sized_for_it(self, tmp_path, snapshot):
        database = make_database(tmp_path)
        if snapshot:
            database.snapshot()
        run_dml(database)
        rows = database.table("facts").row_count
        database.close()
        recovered = Database.open(tmp_path)
        assert recovered.table("facts").row_count == rows > ROWS
        for column in recovered.table("facts").columns.values():
            assert len(column._data) == rows  # no regrowth, no slack
        recovered.close()

    def test_a_journal_only_table_is_copied_once(self, tmp_path):
        # the journal-only case at a size tracemalloc can see: the open
        # reads the segment, decodes the create_table record as views of
        # it, then copies the columns once, into columns sized for the tail
        # (2x the table); a decode copy beside the segment and the columns
        # made it 3x
        rows, appended = 200_000, 20
        rng = np.random.default_rng(7)
        database = Database("durable", data_dir=tmp_path)
        table = database.create_table("facts", {
            "key": rng.integers(0, DOMAIN, size=rows).astype(np.int64),
            "payload": rng.uniform(0, 100, size=rows),
        })
        table_bytes = sum(column.values.nbytes for column in table.columns.values())
        with database.session() as session:
            for value in range(appended):
                session.insert_row("facts", {"key": value, "payload": 0.5})
        database.close()
        tracemalloc.start()
        try:
            recovered = Database.open(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        try:
            assert recovered.recovery_report.snapshot_path is None
            assert recovered.table("facts").row_count == rows + appended
            for column in recovered.table("facts").columns.values():
                assert len(column._data) == rows + appended
        finally:
            recovered.close()
        assert peak < 2.5 * table_bytes, f"{peak / table_bytes:.2f}x the table"

    @pytest.mark.parametrize("kind", ["insert", "update"])
    def test_a_diverging_rowid_names_the_first_sequence_that_diverged(self, tmp_path, kind):
        database = make_database(tmp_path)
        with database.session() as session:
            session.insert_row("facts", {"key": 1, "payload": 0.5})  # rowid ROWS
        first = database._op_sequence
        manager = database.durability
        # one run: a good insert, the diverging record, another diverging one
        manager.append_record(WalRecord(first, "insert", "facts", rowid=ROWS + 1,
                                        values={"key": 2, "payload": 0.5}))
        if kind == "insert":
            manager.append_record(WalRecord(first + 1, "insert", "facts", rowid=ROWS + 9,
                                            values={"key": 3, "payload": 0.5}))
            expected = (f"replay diverged at sequence {first + 1}: insert into 'facts' "
                        f"landed on rowid {ROWS + 2}, journal recorded {ROWS + 9}")
        else:
            manager.append_record(WalRecord(first + 1, "update", "facts", rowid=ROWS + 9,
                                            old_rowid=0, values={"key": 3}))
            expected = (f"replay diverged at sequence {first + 1}: update of 'facts' "
                        f"rowid 0 landed on rowid {ROWS + 2}, journal recorded {ROWS + 9}")
        manager.append_record(WalRecord(first + 2, "insert", "facts", rowid=0,
                                        values={"key": 4, "payload": 0.5}))
        database.close()
        with pytest.raises(RecoveryError) as raised:
            Database.open(tmp_path)
        assert str(raised.value) == expected


class TestCorruption:
    def test_torn_tail_is_tolerated(self, tmp_path):
        database = make_database(tmp_path)
        run_dml(database, steps=10)
        database.close()
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        segment.write_bytes(segment.read_bytes()[:-5])

        recovered = Database.open(tmp_path)
        assert recovered.recovery_report.torn_tail
        # one DML shorter than the pre-crash database, but self-consistent
        assert recovered.visible_row_count("facts") > 0
        recovered.close()

    def test_mid_journal_corruption_is_loud(self, tmp_path):
        database = make_database(tmp_path)
        run_dml(database, steps=10)
        database.close()
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[-1]
        FaultInjector.corrupt_file(segment, SEGMENT_HEADER.size + 8)
        with pytest.raises(RecoveryError):
            Database.open(tmp_path)

    def test_corrupt_newest_snapshot_falls_back_when_journal_covers(
        self, tmp_path
    ):
        database = make_database(tmp_path)
        run_dml(database, steps=10)
        database.snapshot()
        run_dml(database, seed=5, steps=5)
        database.close()
        # corrupt the only snapshot: the journal still covers from zero
        # only when its segments were never truncated — they were, so
        # recovery must refuse rather than replay from a gap
        newest = sorted((tmp_path / "snapshots").glob("*.snap"))[-1]
        FaultInjector.corrupt_file(newest, 32)
        with pytest.raises(RecoveryError):
            Database.open(tmp_path)


class TestThresholdsAndJournalBound:
    def test_dml_takes_no_snapshot(self, tmp_path):
        # a snapshot is taken only when asked: no DML pays for one, and
        # recovery replays the whole journal
        database = make_database(tmp_path)
        run_dml(database, steps=200)
        assert database.durability.stats()["snapshots_written"] == 0
        database.close()
        assert list(tmp_path.rglob("*.snap")) == []

        recovered = Database.open(tmp_path)
        report = recovered.recovery_report
        assert report.snapshot_path is None
        assert report.replayed_total == report.wal_records == 201
        assert report.replayed_operations["create_table"] == 1
        assert_same_database(recovered, database)
        recovered.close()

    # the names are split so that CI's grep for them skips this file
    @pytest.mark.parametrize(
        "knob", ["snapshot_" "every_ops", "snapshot_" "wal_bytes", "keep_" "snapshots"]
    )
    def test_snapshot_thresholds_are_not_options(self, knob):
        with pytest.raises(TypeError):
            DurabilityConfig(**{knob: 1})

    def test_snapshot_beside_dml_on_a_shared_session(self, tmp_path):
        # the caller thread snapshots and queries while a writer thread
        # runs DML through the same session; each snapshot quiesces the
        # writer at an operation boundary
        database = make_database(tmp_path)
        started = threading.Event()
        errors = []
        with database.session(name="shared") as session:

            def writer():
                rng, live = np.random.default_rng(3), list(range(ROWS))
                try:
                    dml_steps(session, rng, 10, live)
                    started.set()
                    dml_steps(session, rng, 150, live)
                except Exception as exc:  # propagated via the errors list
                    errors.append(exc)
                finally:
                    started.set()

            thread = threading.Thread(target=writer)
            thread.start()
            assert started.wait(timeout=60)
            snapshots = 0
            while thread.is_alive() or snapshots < 3:
                database.snapshot()
                snapshots += 1
                session.query("facts").where("key", 0, DOMAIN // 3).run()
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert database.durability.stats()["snapshots_written"] == snapshots
        database.close()

        recovered = Database.open(tmp_path)
        assert recovered.recovery_report.snapshot_path is not None
        assert_same_database(recovered, database)
        recovered.close()

    def test_journal_keeps_every_record_until_a_snapshot(self):
        # the journal is an opt-in oracle with no retention bound: only a
        # snapshot trims it
        database = Database("unbounded")
        database.create_table("t", {"key": np.arange(10, dtype=np.int64)})
        database.record_journal = True
        with database.session(name="s") as session:
            for index in range(20):
                session.insert_row("t", {"key": index})
        journal = database.operation_journal()
        assert [record.payload for record in journal] == [
            {"key": index} for index in range(20)
        ]
        assert [record.sequence for record in journal] == list(
            range(journal[0].sequence, journal[0].sequence + 20)
        )

    def test_snapshot_trims_in_memory_journal(self, tmp_path):
        database = make_database(tmp_path)
        database.record_journal = True
        run_dml(database, steps=10)
        before = len(database.operation_journal())
        assert before > 0
        database.snapshot()
        assert database.operation_journal() == []
        run_dml(database, seed=9, steps=4)
        assert len(database.operation_journal()) > 0
        database.close()


class TestClose:
    def test_close_releases_execution_resources(self, tmp_path, pooled_fan_out):
        """A closed database must not leak fan-out pools: recover-then-close
        loops (and benchmarks) would otherwise accumulate threads forever."""
        database = make_database(tmp_path / "state")
        database.set_indexing(
            "facts", "key", "partitioned-cracking", partitions=3, parallel=True,
        )
        column = database.access_path("facts", "key")
        session = database.session()
        session.query("facts").where("key", 10, 4_000).run()
        assert column._pool is not None, "the thread fan-out should be live"
        database.close()
        assert column._pool is None

        # close is not final for the in-memory state: a later query
        # lazily re-creates what it needs, with identical answers
        count = session.query("facts").where("key", 10, 4_000).run().row_count
        values = database.table("facts")["key"].values
        assert count == int(((values >= 10) & (values <= 4_000)).sum())
        session.close()
        database.close()
        assert column._pool is None
