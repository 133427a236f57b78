"""A batch cracks each partition once, and nothing else changes route.

``Session.execute_many`` hands the ranges a task selects through one access
path to ``search_many``, and a partitioned cracked column answers its share
of them with one ``crack_many`` pass per partition instead of one
crack-in-two or crack-in-three per range.  Whether that route is taken shows
without a clock, in the style of ``tests/engine/test_no_full_column_pass.py``:
the tests count calls to the two partition kernels and to ``crack_many``.
A lone range is a batch of one and keeps the per-range kernels, so the
sequential twin of ``tests/properties/test_property_search_many.py`` runs
``crack_range``, not ``search_many`` checked against itself.  A batch is one
unit on the calling thread: it starts no thread of its own, and neither does
a single query or a row change through a session.
"""

import threading

import numpy as np
import pytest

from repro.core.cracking import crack_engine, cracked_column
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection

ROWS = 80_000
PARTITIONS = 8
DOMAIN = 10_000_000
WIDTH = 10_000
BATCH = 64


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls made to each crack kernel while the test runs, by name."""
    calls = {"partition_two_way": 0, "partition_three_way": 0, "crack_many": 0}

    def counting(module, name):
        kernel = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(crack_engine, "partition_two_way")
    counting(crack_engine, "partition_three_way")
    counting(cracked_column, "crack_many")
    return calls


def counted_from_here(calls):
    """Forget the calls made while the database was being set up."""
    calls.update(dict.fromkeys(calls, 0))


def query(low):
    return Query(table="t", selections=[RangeSelection("key", low, low + WIDTH)],
                 aggregates=[Aggregate("pay", "sum")])


def steady_database(mode="partitioned-cracking"):
    """1 000 queries into the stream, as the batch workload's steady phase
    (``cracking`` is the whole column, the other modes have partitions)."""
    rng = np.random.default_rng(34)
    database = Database("one-pass")
    database.create_table("t", {
        "key": rng.integers(0, DOMAIN, ROWS).astype(np.int64),
        "pay": rng.random(ROWS),
    })
    options = {} if mode == "cracking" else {"partitions": PARTITIONS}
    database.set_indexing("t", "key", mode, **options)
    with database.session() as session:
        for _ in range(16):
            session.execute_many([query(low) for low in rng.integers(0, DOMAIN, BATCH)])
    return database, rng


def test_a_steady_batch_makes_one_pass_per_partition(kernel_calls):
    database, rng = steady_database()
    counted_from_here(kernel_calls)
    with database.session() as session:
        results = session.execute_many(
            [query(low) for low in rng.integers(0, DOMAIN, BATCH)])
    assert len(results) == BATCH
    assert kernel_calls == {"partition_two_way": 0, "partition_three_way": 0,
                            "crack_many": PARTITIONS}


def test_a_partition_with_pending_updates_answers_range_by_range(kernel_calls):
    database, rng = steady_database("partitioned-updatable-cracking")
    lows = rng.integers(0, DOMAIN - WIDTH, BATCH)
    counted_from_here(kernel_calls)
    with database.session() as session:
        # a pending insert inside the first range: one partition queues it
        session.insert_row("t", {"key": int(lows[0]) + 1, "pay": 0.5})
        session.execute_many([query(low) for low in lows])
    assert kernel_calls["crack_many"] == PARTITIONS - 1
    assert kernel_calls["partition_two_way"] + kernel_calls["partition_three_way"] > 0


@pytest.mark.parametrize("mode", ["partitioned-cracking", "cracking"])
@pytest.mark.parametrize("entry", ["execute", "search_many"])
def test_a_single_execute_keeps_its_kernels(kernel_calls, mode, entry):
    """One range through ``Session.execute`` or a direct one-range
    ``search_many`` call, on a partitioned or a whole column: a crack-in-two
    or crack-in-three per new bound, never the one-pass kernel."""
    database, rng = steady_database(mode)
    path = database.access_path("t", "key")
    counted_from_here(kernel_calls)
    with database.session() as session:
        for low in rng.integers(0, DOMAIN, 4).tolist():
            if entry == "execute":
                session.execute(query(low))
            else:
                path.search_many([(low, low + WIDTH)], [None])
    assert kernel_calls["crack_many"] == 0
    assert kernel_calls["partition_two_way"] + kernel_calls["partition_three_way"] \
        >= (PARTITIONS if mode == "partitioned-cracking" else 4)


@pytest.fixture
def thread_starts(monkeypatch):
    """The name of every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def no_thread_database(rng, modes):
    """One table with a column per entry of ``modes`` (None: scanned)."""
    database = Database("one-unit")
    database.create_table("t", {
        name: rng.integers(0, DOMAIN, ROWS // 8).astype(np.int64)
        for name in modes
    })
    for name, mode in modes.items():
        if mode is not None:
            database.set_indexing("t", name, mode)
    return database


def test_a_batch_starts_no_thread(thread_starts):
    """A batch over a cracking, a full-index and a scanned column runs on
    the calling thread, whatever ``parallel`` and ``max_workers`` say."""
    rng = np.random.default_rng(35)
    modes = {"cracked": "cracking", "indexed": "full-index", "scanned": None}
    database = no_thread_database(rng, modes)
    queries = [Query.range_query("t", name, low, low + WIDTH)
               for low in rng.integers(0, DOMAIN, 4).tolist()
               for name in modes]
    with database.session() as session:
        session.execute_many(queries, parallel=True, max_workers=4)
    assert thread_starts == []


@pytest.mark.parametrize("mode", ["cracking", "updatable-cracking",
                                  "full-index", "scan"])
def test_queries_and_dml_through_a_session_start_no_thread(thread_starts, mode):
    """Single queries, inserts, deletes and updates through a session run
    on the calling thread on every kind of column: cracking, updatable
    cracking, a full index and a scan (``max_workers`` is ignored)."""
    rng = np.random.default_rng(36)
    database = no_thread_database(
        rng, {"key": None if mode == "scan" else mode, "other": None})
    with database.session(max_workers=4) as session:
        for low in rng.integers(0, DOMAIN, 3).tolist():
            session.execute(Query.range_query("t", "key", low, low + WIDTH))
        rowid = session.insert_row("t", {"key": 7, "other": 7})
        rowid = session.update_row("t", rowid, {"key": 8})
        session.delete_row("t", rowid)
        session.delete_row("t", 0)
        result = session.query("t").where("key", 0, DOMAIN // 2).run()
    assert thread_starts == []
    assert rowid not in result.positions.tolist()
    assert 0 not in result.positions.tolist()
