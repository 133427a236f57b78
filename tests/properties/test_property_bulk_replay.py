"""Recovery's run replay is the per-record replay, on every registry name.

``Database.open`` applies each maximal run of DML records on one table as
one unit (``Session._apply_dml_run``).  The reference here replays the same
journal tail record by record through the public session methods, after
installing the same snapshot, and the two databases must agree on the table
arrays and tombstones, each updatable path's queues in order, the
linearization counter, the engine's row counters, and the answers and
counters of later queries.  Journals are random: two tables, a snapshot
part of the way through (or none), a table created in the tail, repeated
deletes and updates of rows the same run inserted.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies import available_strategies
from repro.durability.manager import snapshot_directory, wal_directory
from repro.durability.recovery import _apply_snapshot
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import WriteAheadLog
from repro.engine.database import Database
from repro.engine.query import Query

DOMAIN = 200
ROWS = 40
QUERIES = 4

#: one journal step: (table 0/1, kind roll, victim pick, value)
STEPS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 9), st.integers(0, 10**6),
              st.integers(0, DOMAIN - 1)),
    min_size=1, max_size=40,
)


def write_journal(data_dir, name, steps, snapshot_at, create_at):
    """A durable database driven through ``steps``; returns nothing, the
    data directory is the journal."""
    database = Database("bulk", data_dir=data_dir)
    rng = np.random.default_rng(len(steps))
    live = {}

    def create(table):
        database.create_table(table, {
            "a": rng.integers(0, DOMAIN, size=ROWS).astype(np.int64),
            "b": np.arange(ROWS, dtype=np.int64),
        })
        database.set_indexing(table, "a", name)
        live[table] = list(range(ROWS))

    create("T")
    with database.session() as session:
        for position, (which, roll, pick, value) in enumerate(steps):
            if position == snapshot_at:
                database.snapshot()
            if position == create_at:
                create("U")
            table = "U" if which and "U" in live else "T"
            rows = live[table]
            if roll < 4 or not rows:
                rows.append(session.insert_row(table, {"a": value, "b": position}))
            elif roll < 6:
                session.delete_row(table, rows.pop(pick % len(rows)))
            elif roll < 7:
                # a row deleted before: journaled, changes nothing
                deleted = database.table(table).tombstones
                if len(deleted):
                    session.delete_row(table, int(deleted[pick % len(deleted)]))
            else:
                victim = rows.pop(pick % len(rows))
                rows.append(session.update_row(table, victim, {"a": value}))
    database.durability.wal.sync()
    database.close()


def replay_per_record(data_dir):
    """The newest snapshot, then every tail record on its own through the
    session's single-row methods, each checked against its rowid; returns
    the database and the replayed records per kind."""
    store = SnapshotStore(snapshot_directory(data_dir))
    database = Database("bulk")
    high_water = -1
    if store.paths():
        state = store.load(store.paths()[-1])
        _apply_snapshot(database, state)
        database._op_sequence = state.op_sequence
        high_water = state.high_water
    last = high_water
    replayed = {}
    with database.session() as session:
        for record in WriteAheadLog.scan(wal_directory(data_dir)).records:
            if record.sequence <= high_water:
                continue
            last = record.sequence
            replayed[record.kind] = replayed.get(record.kind, 0) + 1
            if record.kind == "insert":
                assert session.insert_row(record.table, record.values) == record.rowid
            elif record.kind == "delete":
                session.delete_row(record.table, record.rowid)
            elif record.kind == "update":
                assert session.update_row(
                    record.table, record.old_rowid, record.values) == record.rowid
            elif record.kind == "create_table":
                database.create_table(
                    record.table, {dump.name: dump.values for dump in record.columns})
            else:
                assert record.kind == "set_indexing", record.kind
                database.set_indexing(record.table, record.column, record.mode,
                                      **record.options)
    # recovery resumes the counter past everything on disk the same way
    database._op_sequence = max(database._op_sequence, last + 1)
    return database, replayed


def queues(path):
    """An updatable path's pending queues, in order."""
    return (list(path._pending_insert_values), list(path._pending_insert_rowids),
            list(path._delete_queue_values), list(path._delete_queue_rowids),
            sorted(path._pending_delete_rowid_set))


def assert_same(recovered, reference, seed):
    assert recovered.table_names == reference.table_names
    assert recovered._op_sequence == reference._op_sequence
    assert recovered.rows_inserted == reference.rows_inserted
    assert recovered.rows_deleted == reference.rows_deleted
    for table in reference.table_names:
        ours, theirs = recovered.table(table), reference.table(table)
        for column in theirs.column_names:
            assert ours[column].dtype is theirs[column].dtype
            assert np.array_equal(ours[column].values, theirs[column].values)
        assert np.array_equal(ours.tombstones, theirs.tombstones)
        path, expected = recovered.access_path(table, "a"), reference.access_path(table, "a")
        assert type(path) is type(expected)
        if expected is not None:
            assert path.structure_description == expected.structure_description
            if expected.supports_updates:
                assert queues(path) == queues(expected)
    rng = np.random.default_rng(seed)
    with recovered.session() as ours, reference.session() as theirs:
        for _ in range(QUERIES):
            table = reference.table_names[int(rng.integers(0, len(reference.table_names)))]
            low = int(rng.integers(0, DOMAIN))
            query = Query.range_query(table, "a", low, low + int(rng.integers(1, DOMAIN)))
            got, want = ours.execute(query), theirs.execute(query)
            assert got.positions.tolist() == want.positions.tolist()
            assert got.counters == want.counters


@pytest.mark.parametrize("name", available_strategies())
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(steps=STEPS, snapshot_at=st.integers(-1, 40), create_at=st.integers(-1, 40),
       seed=st.integers(0, 2**16))
def test_run_replay_is_the_per_record_replay(name, steps, snapshot_at, create_at, seed):
    with tempfile.TemporaryDirectory() as scratch:
        data_dir = Path(scratch) / "db"
        write_journal(data_dir, name, steps, snapshot_at, create_at)
        reference, replayed = replay_per_record(data_dir)
        recovered = Database.open(data_dir)
        try:
            assert recovered.recovery_report.replayed_operations == replayed
            assert_same(recovered, reference, seed)
        finally:
            recovered.close()
            reference.close()


class _Counting:
    """Counts ``Database._rebuilt_path`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Database._rebuilt_path

        def counted(database, table, column):
            self.calls += 1
            return original(database, table, column)

        monkeypatch.setattr(Database, "_rebuilt_path", counted)


def test_a_run_rebuilds_a_non_absorbing_path_once(tmp_path, monkeypatch):
    database = Database("bulk", data_dir=tmp_path / "db")
    for table in ("T", "U"):
        database.create_table(table, {"a": np.arange(ROWS, dtype=np.int64)})
        database.set_indexing(table, "a", "full-index")
    database.snapshot()
    with database.session() as session:
        for value in range(5):  # run one: five inserts and a delete on T
            session.insert_row("T", {"a": value})
        session.delete_row("T", 3)
        session.insert_row("U", {"a": 1})  # run two: U
        for value in range(3):  # run three: T again
            session.insert_row("T", {"a": value})
    database.close()
    counting = _Counting(monkeypatch)
    recovered = Database.open(tmp_path / "db")
    assert counting.calls == 3  # one per run, not one per insert (9)
    assert recovered.recovery_report.replayed_operations == {"insert": 9, "delete": 1}
    assert recovered.table("T").row_count == ROWS + 8
    recovered.close()
