"""Unit tests for the session front door, the table gate and the builder."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine.concurrency import TableGate
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, QueryBuilder, RangeSelection
from repro.engine.session import SessionStats


@pytest.fixture
def database(rng):
    db = Database("session-test")
    size = 4000
    db.create_table(
        "facts",
        {
            "a": rng.integers(0, 10_000, size=size).astype(np.int64),
            "b": rng.integers(0, 1_000, size=size).astype(np.int64),
            "c": rng.uniform(0, 100, size=size),
        },
    )
    return db


def reference_positions(db, low, high, column="a", table="facts"):
    values = db.table(table)[column].values
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


class TestSessionLifecycle:
    def test_context_manager_closes(self, database):
        with database.session(name="s") as session:
            session.execute(Query.range_query("facts", "a", 0, 10))
            assert session.name == "s"
        with pytest.raises(RuntimeError, match="closed"):
            session.execute(Query.range_query("facts", "a", 0, 10))
        with pytest.raises(RuntimeError, match="closed"):
            session.insert_row("facts", {"a": 1, "b": 2, "c": 3.0})

    def test_close_is_idempotent(self, database):
        session = database.session()
        session.close()
        session.close()

    def test_sessions_get_distinct_default_names(self, database):
        assert database.session().name != database.session().name

    @pytest.mark.parametrize("workers", [None, 0, -1, 4])
    def test_max_workers_is_accepted_and_ignored(self, database, workers):
        with database.session(max_workers=workers) as session:
            assert session.execute(
                Query.range_query("facts", "a", 0, 10)
            ).row_count == len(reference_positions(database, 0, 10))

    @pytest.mark.parametrize("operation", [
        lambda session: session.execute(Query.range_query("facts", "a", 0, 10)),
        lambda session: session.execute_many([]),
        lambda session: session.query("facts").where("a", 0, 10).run(),
        lambda session: session.insert_row("facts", {"a": 1, "b": 2, "c": 3.0}),
        lambda session: session.delete_row("facts", 0),
        lambda session: session.update_row("facts", 0, {"a": 5}),
    ], ids=["execute", "execute_many", "builder", "insert", "delete", "update"])
    def test_closed_session_refuses_every_operation(self, database, operation):
        # close() only marks the session closed: every later operation
        # raises before it touches a gate, a row or the journal
        database.set_indexing("facts", "a", "updatable-cracking")
        database.record_journal = True
        session = database.session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            operation(session)
        assert database.visible_row_count("facts") == 4000
        assert database.table("facts").row_count == 4000
        assert database.operation_journal() == []
        assert session.stats() == SessionStats(name=session.name)


class TestSessionExecution:
    def test_execute_matches_database_front_door(self, database):
        database.set_indexing("facts", "a", "cracking")
        with database.session() as session:
            result = session.execute(Query.range_query("facts", "a", 1000, 3000))
        assert set(result.positions.tolist()) == reference_positions(
            database, 1000, 3000
        )

    def test_submit_returns_future_with_same_answer(self, database):
        # a caller-owned pool runs the query through the shared session
        database.set_indexing("facts", "a", "adaptive-merging")
        with database.session() as session, ThreadPoolExecutor(1) as pool:
            future = pool.submit(
                session.execute, Query.range_query("facts", "a", 500, 2500)
            )
            result = future.result()
        assert set(result.positions.tolist()) == reference_positions(
            database, 500, 2500
        )

    def test_results_carry_linearization_sequence(self, database):
        with database.session() as session:
            first = session.execute(Query.range_query("facts", "a", 0, 100))
            second = session.execute(Query.range_query("facts", "a", 0, 100))
        assert 0 <= first.sequence < second.sequence

    def test_execute_many_reports_on_the_session_that_ran_it(self, database):
        queries = [
            Query.range_query("facts", "a", low, low + 500)
            for low in range(0, 2000, 500)
        ]
        with database.session() as session, database.session() as idle:
            results = session.execute_many(queries)
            stats, idle_stats = session.stats(), idle.stats()
        assert len(results) == len(queries)
        assert (stats.batches_executed, stats.queries_executed) == (1, len(queries))
        assert (idle_stats.batches_executed, idle_stats.queries_executed) == (0, 0)

    def test_session_stats_count_operations(self, database):
        with database.session() as session:
            session.execute(Query.range_query("facts", "a", 0, 100))
            session.execute_many([Query.range_query("facts", "a", 0, 50)])
            rowid = session.insert_row("facts", {"a": 1, "b": 2, "c": 3.0})
            session.update_row("facts", rowid, {"a": 2})
            session.delete_row("facts", 0)
            stats = session.stats()
        assert stats.queries_executed == 2
        assert stats.batches_executed == 1
        assert stats.rows_inserted == 1
        assert stats.rows_updated == 1
        assert stats.rows_deleted == 1

    def test_repeated_delete_is_counted_once(self, database):
        database.record_journal = True
        with database.session() as session:
            session.delete_row("facts", 5)
            session.delete_row("facts", 5)
            stats = session.stats()
        assert stats.rows_deleted == database.rows_deleted == 1
        # the repeat still reaches the journal: replaying it is a no-op
        assert [record.kind for record in database.operation_journal()] == [
            "delete", "delete",
        ]

    def test_submitted_dml_applies(self, database):
        # DML handed to a caller-owned pool that shares the session
        database.set_indexing("facts", "a", "updatable-cracking")
        with database.session() as session, ThreadPoolExecutor(2) as pool:
            rowid = pool.submit(
                session.insert_row, "facts", {"a": 42_000, "b": 0, "c": 0.0}
            ).result()
            assert rowid == 4000
            new_rowid = pool.submit(
                session.update_row, "facts", rowid, {"a": 43_000}
            ).result()
            pool.submit(session.delete_row, "facts", 0).result()
            result = session.query("facts").where("a", 42_000, 44_000).run()
        assert set(result.positions.tolist()) == {new_rowid}
        assert database.visible_row_count("facts") == 4000

    def test_shared_session_counts_every_caller_thread(self, database):
        # four caller-owned threads share one session: every answer is
        # right and the session's counters miss none of their operations
        database.set_indexing("facts", "a", "cracking")
        lows = list(range(0, 9_000, 150))
        with database.session() as session, ThreadPoolExecutor(4) as pool:
            results = list(pool.map(
                lambda low: session.execute(
                    Query.range_query("facts", "a", low, low + 1000)),
                lows,
            ))
            rowids = list(pool.map(
                lambda key: session.insert_row(
                    "facts", {"a": key, "b": 0, "c": 0.0}),
                range(20_000, 20_012),
            ))
            stats = session.stats()
        for low, result in zip(lows, results):
            assert set(result.positions.tolist()) == reference_positions(
                database, low, low + 1000
            )
        assert sorted(rowids) == list(range(4000, 4012))
        assert stats.queries_executed == len(lows)
        assert stats.rows_inserted == 12
        assert database.rows_inserted == 12

    def test_concurrent_sessions_share_one_database(self, database):
        database.set_indexing("facts", "a", "cracking")
        answers = {}

        def run(name, low):
            with database.session(name=name) as session:
                result = session.execute(
                    Query.range_query("facts", "a", low, low + 1000)
                )
                answers[name] = (low, set(result.positions.tolist()))

        threads = [
            threading.Thread(target=run, args=(f"s{i}", i * 1000))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for low, positions in answers.values():
            assert positions == reference_positions(database, low, low + 1000)


class TestQueryBuilder:
    def test_builder_desugars_to_query(self, database, session):
        query = (
            session.query("facts")
            .where("a", 10, 20)
            .where("b", None, 500)
            .select("c")
            .agg("sum", "c")
            .build()
        )
        assert query == Query(
            table="facts",
            selections=[RangeSelection("a", 10, 20), RangeSelection("b", None, 500)],
            projections=["c"],
            aggregates=[Aggregate("c", "sum")],
            description="facts: a in [10, 20) and b in [None, 500)",
        )

    def test_builder_run_and_submit(self, database, session):
        result = session.query("facts").where("a", 1000, 2000).run()
        assert set(result.positions.tolist()) == reference_positions(
            database, 1000, 2000
        )
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(session.query("facts").where("a", 1000, 2000).run)
        assert np.array_equal(future.result().positions, result.positions)

    def test_builder_on_session(self, database):
        with database.session() as session:
            result = (
                session.query("facts")
                .where("a", 0, 5000)
                .agg("count", "c")
                .run()
            )
        assert result.aggregates["count(c)"] == result.row_count

    def test_duplicate_where_rejected_eagerly(self, database, session):
        builder = session.query("facts").where("a", 0, 10)
        with pytest.raises(ValueError, match="duplicate selection"):
            builder.where("a", 20, 30)

    def test_unknown_aggregate_rejected_eagerly(self, database, session):
        with pytest.raises(ValueError, match="unknown aggregate function"):
            session.query("facts").agg("median", "c")

    def test_unbound_builder_cannot_run(self):
        builder = QueryBuilder("facts").where("a", 0, 1)
        assert builder.build().table == "facts"
        with pytest.raises(RuntimeError, match="not bound"):
            builder.run()

    def test_select_collapses_duplicates(self):
        query = QueryBuilder("facts").select("c", "b", "c").build()
        assert query.projections == ["c", "b"]

    def test_builder_requires_table(self):
        with pytest.raises(ValueError, match="must name a table"):
            QueryBuilder("")


class TestAggregateValidation:
    @pytest.mark.parametrize("function", ["count", "sum", "min", "max", "mean"])
    def test_known_functions_accepted(self, function):
        assert Aggregate("c", function).function == function

    def test_unknown_function_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown aggregate function"):
            Aggregate("c", "median")

    def test_query_construction_rejects_bad_aggregate(self):
        with pytest.raises(ValueError, match="unknown aggregate function"):
            Query(table="t", aggregates=[Aggregate("c", "stddev")])


class TestTableGate:
    def test_writer_waits_for_readers(self):
        gate = TableGate()
        gate.acquire_read()
        acquired = threading.Event()

        def writer():
            gate.acquire_write()
            acquired.set()
            gate.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not acquired.wait(0.1)
        assert gate.fenced_writes == 1  # queued behind the reader
        gate.release_read()
        assert acquired.wait(2.0)
        thread.join()
        assert gate.fenced_writes == 1

    def test_waiting_writer_fences_new_readers(self):
        gate = TableGate()
        gate.acquire_read()
        writer_done = threading.Event()
        reader_entered = threading.Event()

        def writer():
            gate.acquire_write()
            gate.release_write()
            writer_done.set()

        def late_reader():
            with gate.read():
                reader_entered.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        while gate.fenced_writes == 0:
            pass  # wait until the writer is queued
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        # the late reader queues behind the waiting writer
        assert not reader_entered.wait(0.1)
        gate.release_read()
        assert writer_done.wait(2.0)
        assert reader_entered.wait(2.0)
        writer_thread.join()
        reader_thread.join()

    def test_readers_share(self):
        # two reader *threads*: the gate is not reentrant, so a second
        # shared acquisition from the same thread would be a latent
        # deadlock under writer preference (the lock witness flags it)
        gate = TableGate()
        gate.acquire_read()
        second_entered = threading.Event()

        def second_reader():
            gate.acquire_read()
            second_entered.set()
            gate.release_read()

        thread = threading.Thread(target=second_reader)
        thread.start()
        assert second_entered.wait(timeout=5.0)
        thread.join(timeout=5.0)
        gate.release_read()
        assert gate.fenced_writes == 0


class TestDMLFencing:
    def test_dml_blocks_until_inflight_queries_drain(self, database, session):
        gate = database.table_gate("facts")
        gate.acquire_read()  # stand in for an in-flight query/batch
        inserted = threading.Event()

        def dml():
            session.insert_row("facts", {"a": 1, "b": 2, "c": 3.0})
            inserted.set()

        thread = threading.Thread(target=dml)
        thread.start()
        assert not inserted.wait(0.1), "insert was not fenced"
        gate.release_read()
        assert inserted.wait(2.0)
        thread.join()
        assert gate.fenced_writes == 1
        assert database.table("facts").row_count == 4001

    def test_insert_rebuild_holds_owning_path_lock(self, database, session, monkeypatch):
        """ROADMAP follow-up 3: the access-path rebuild on insert runs
        under the owning path's lock."""
        # the rebuild is the strategy's own ``rebuilt``, which goes back
        # through the registry
        import repro.core.strategies as strategies_module

        database.set_indexing("facts", "a", "cracking")
        lock = database._path_locks.lock_for(("path", "facts", "a"))
        original = strategies_module.create_strategy
        observed = {}

        def checking_create(*args, **kwargs):
            observed["locked"] = lock.locked()
            return original(*args, **kwargs)

        monkeypatch.setattr(strategies_module, "create_strategy", checking_create)
        session.insert_row("facts", {"a": 1, "b": 2, "c": 3.0})
        assert observed["locked"] is True

    def test_updatable_absorb_holds_owning_path_lock(self, database, session):
        database.set_indexing("facts", "a", "updatable-cracking")
        path = database.access_path("facts", "a")
        lock = database._path_locks.lock_for(("path", "facts", "a"))
        original = path.insert
        observed = {}

        def checking_insert(*args, **kwargs):
            observed["locked"] = lock.locked()
            return original(*args, **kwargs)

        path.insert = checking_insert
        try:
            session.insert_row("facts", {"a": 1, "b": 2, "c": 3.0})
        finally:
            del path.insert
        assert observed["locked"] is True


class TestDDLFencing:
    """DDL takes the table's write gate (inside the schema lock), so a mode
    switch or a drop waits for the queries in flight on the table."""

    @pytest.mark.parametrize(
        "ddl",
        [
            lambda db: db.set_indexing("facts", "a", "cracking"),
            lambda db: db.drop_table("facts"),
        ],
        ids=["set_indexing", "drop_table"],
    )
    def test_ddl_blocks_until_inflight_queries_drain(self, database, ddl):
        holding, release, done = (threading.Event() for _ in range(3))

        def in_flight_query():
            with database._table_gates.read(["facts"]):
                holding.set()
                assert release.wait(5.0)

        def run_ddl():
            ddl(database)
            done.set()

        reader = threading.Thread(target=in_flight_query)
        reader.start()
        assert holding.wait(2.0)
        writer = threading.Thread(target=run_ddl)
        writer.start()
        assert not done.wait(0.1), "DDL ran beside an in-flight query"
        release.set()
        assert done.wait(5.0)
        reader.join()
        writer.join()
        assert database.table_gate("facts").fenced_writes == 1
