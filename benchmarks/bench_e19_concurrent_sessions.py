"""E19 — concurrent sessions: readers keep fanning out while DML streams.

The session front door (``repro.engine.session``) makes the safe,
concurrent path the default one: every query holds its table's gate
shared and the locks of the mutating access paths it touches, every DML
operation holds the gate exclusive.  This experiment drives that protocol
the way the tutorial frames live workloads — queries never stop arriving
while updates trickle in — and checks two things:

* **identity**: with the operation journal enabled, replaying the
  linearized history sequentially on a fresh database reproduces every
  query result (positions *and* cost counters) and every assigned rowid
  bit for bit — the concurrent run is equivalent to a sequential
  ordering of the same operations;
* **wall-clock**: the concurrent run stays in the same range as the
  sequential replay (readers fan out; DML fences are short).  As in E18
  the ratio bound is deliberately loose — identity is the hard gate, the
  printed numbers are what to watch.

Two shapes are exercised: pipelined single queries from several reader
sessions against a scan-only table while a writer session streams
inserts/deletes, and ``execute_many`` batches over a cracking column with
a DML stream fencing on the gate mid-batch (``fenced_writes``).
"""

import os
import threading
import time

import numpy as np
import pytest

from bench_common import SCALE
from repro.engine.database import Database
from repro.engine.query import Query

ROWS = max(40_000, int(150_000 * SCALE))
DOMAIN = 1_000_000
READER_SESSIONS = 3
QUERIES_PER_READER = 10
DML_OPS = 40
BATCH_ROUNDS = 3
BATCH_QUERIES = 12
SELECTIVITY = 0.05

MULTI_CORE = (os.cpu_count() or 1) >= 2
#: concurrent wall-clock vs sequential replay of the same linearized ops.
#: Identity is the hard gate; this only catches gross regressions (fair
#:-gate convoys, lock thrash).  Single-core machines pay thread overhead
#: and DML fences without any fan-out benefit, so the bound widens.
WALL_CLOCK_TOLERANCE = 3.0 if MULTI_CORE else 6.0


def fresh_database(mode, seed=19, **options):
    rng = np.random.default_rng(seed)
    database = Database(f"e19-{mode}")
    database.create_table(
        "data",
        {
            "key": rng.integers(0, DOMAIN, size=ROWS).astype(np.int64),
            "payload": rng.uniform(0, 100, size=ROWS),
        },
    )
    if mode != "scan":
        database.set_indexing("data", "key", mode, **options)
    return database


def replay_journal(journal, database):
    """Apply a linearized history sequentially; returns per-op divergences.

    Every query is re-executed through the (sequential) front door and
    compared bit for bit — positions, projected columns, aggregates and
    cost counters; every DML op must land on the recorded rowid.
    """
    divergences = []
    session = database.session(name="replay")
    for record in journal:
        if record.kind == "query":
            replayed = session.execute(record.payload)
            original = record.result
            same = (
                np.array_equal(replayed.positions, original.positions)
                and replayed.counters == original.counters
                and set(replayed.columns) == set(original.columns)
                and all(
                    np.array_equal(replayed.columns[name], original.columns[name])
                    for name in original.columns
                )
                and replayed.aggregates == original.aggregates
            )
            if not same:
                divergences.append(record.sequence)
        elif record.kind == "insert":
            rowid = session.insert_row(record.table, record.payload)
            if rowid != record.result:
                divergences.append(record.sequence)
        elif record.kind == "delete":
            session.delete_row(record.table, record.payload)
        elif record.kind == "update":
            old_rowid, values = record.payload
            rowid = session.update_row(record.table, old_rowid, values)
            if rowid != record.result:
                divergences.append(record.sequence)
    session.close()
    return divergences


def run_reader_fanout_experiment():
    """Pipelined readers from several sessions + a fenced DML stream."""
    database = fresh_database("scan")
    database.record_journal = True
    rng = np.random.default_rng(77)
    width = DOMAIN * SELECTIVITY
    reader_plans = [
        [
            Query.range_query("data", "key", low, low + width)
            for low in rng.uniform(0, DOMAIN - width, size=QUERIES_PER_READER)
        ]
        for _ in range(READER_SESSIONS)
    ]
    dml_values = rng.integers(0, DOMAIN, size=DML_OPS)
    errors = []

    def reader(plan):
        try:
            with database.session(max_workers=2) as session:
                futures = [session.submit(query) for query in plan]
                for future in futures:
                    future.result()
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    def writer():
        try:
            with database.session(name="dml-stream") as session:
                for step, value in enumerate(dml_values):
                    if step % 4 == 3:
                        session.delete_row("data", step)
                    else:
                        session.insert_row(
                            "data", {"key": int(value), "payload": 0.5}
                        )
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=reader, args=(plan,)) for plan in reader_plans
    ]
    threads.append(threading.Thread(target=writer))
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent_seconds = time.perf_counter() - started

    journal = database.operation_journal()
    oracle = fresh_database("scan")
    started = time.perf_counter()
    divergences = replay_journal(journal, oracle)
    replay_seconds = time.perf_counter() - started
    workers = {
        record.result.worker for record in journal if record.kind == "query"
    }
    return {
        "errors": errors,
        "operations": len(journal),
        "concurrent_ms": concurrent_seconds * 1e3,
        "replay_ms": replay_seconds * 1e3,
        "ratio": concurrent_seconds / max(replay_seconds, 1e-9),
        "divergences": divergences,
        "workers": len(workers),
        "fenced_writes": database.table_gate("data").fenced_writes,
    }


def run_dml_during_batch_experiment():
    """Parallel batches over a cracking column + a concurrent DML stream."""
    database = fresh_database("cracking")
    database.record_journal = True
    rng = np.random.default_rng(78)
    width = DOMAIN * SELECTIVITY
    batches = [
        [
            Query.range_query("data", "key", low, low + width)
            for low in rng.uniform(0, DOMAIN - width, size=BATCH_QUERIES)
        ]
        for _ in range(BATCH_ROUNDS)
    ]
    dml_values = rng.integers(0, DOMAIN, size=DML_OPS)
    errors = []
    batch_running = threading.Event()

    def batch_worker():
        try:
            with database.session(name="batch-session") as session:
                for batch in batches:
                    batch_running.set()
                    session.execute_many(batch, parallel=True, max_workers=4)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    def dml_worker():
        batch_running.wait(timeout=10)
        try:
            with database.session(name="dml-during-batch") as session:
                for step, value in enumerate(dml_values):
                    if step % 5 == 4:
                        session.delete_row("data", step)
                    else:
                        session.insert_row(
                            "data", {"key": int(value), "payload": 1.5}
                        )
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=batch_worker),
        threading.Thread(target=dml_worker),
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent_seconds = time.perf_counter() - started

    journal = database.operation_journal()
    oracle = fresh_database("cracking")
    divergences = replay_journal(journal, oracle)
    return {
        "errors": errors,
        "operations": len(journal),
        "concurrent_ms": concurrent_seconds * 1e3,
        "divergences": divergences,
        "fenced_writes": database.table_gate("data").fenced_writes,
    }


@pytest.mark.benchmark(group="e19-concurrent-sessions")
def test_e19_concurrent_sessions(benchmark):
    fanout, mid_batch = benchmark.pedantic(
        lambda: (run_reader_fanout_experiment(), run_dml_during_batch_experiment()),
        rounds=1,
        iterations=1,
    )

    print(
        f"\nE19: concurrent sessions, {ROWS:,} rows, "
        f"{READER_SESSIONS} reader sessions x {QUERIES_PER_READER} queries, "
        f"{DML_OPS} DML ops, {os.cpu_count()} cpu(s)"
    )
    print(
        f"  readers + DML stream : concurrent={fanout['concurrent_ms']:8.1f} ms  "
        f"replay={fanout['replay_ms']:8.1f} ms  ratio={fanout['ratio']:.2f}  "
        f"workers={fanout['workers']}  dml-fences={fanout['fenced_writes']}"
    )
    print(
        f"  DML during batches   : concurrent={mid_batch['concurrent_ms']:8.1f} ms  "
        f"ops={mid_batch['operations']}  dml-fences={mid_batch['fenced_writes']}"
    )

    assert not fanout["errors"], f"session threads failed: {fanout['errors']}"
    assert not mid_batch["errors"], f"session threads failed: {mid_batch['errors']}"

    expected_ops = READER_SESSIONS * QUERIES_PER_READER + DML_OPS
    assert fanout["operations"] == expected_ops
    assert mid_batch["operations"] == BATCH_ROUNDS * BATCH_QUERIES + DML_OPS

    # identity: the concurrent interleaving replays bit for bit
    assert fanout["divergences"] == [], (
        f"sequential replay diverged at sequences {fanout['divergences']}"
    )
    assert mid_batch["divergences"] == [], (
        f"sequential replay diverged at sequences {mid_batch['divergences']}"
    )

    # the pipelined readers really fanned out over more than one thread
    assert fanout["workers"] > 1, "all session queries ran on a single worker"

    assert fanout["ratio"] <= WALL_CLOCK_TOLERANCE, (
        f"concurrent sessions {fanout['ratio']:.2f}x the sequential replay "
        f"(tolerance {WALL_CLOCK_TOLERANCE}x on {os.cpu_count()} cpu(s))"
    )
