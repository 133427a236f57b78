"""Property suite: concurrent sessions replay sequentially, bit for bit.

The session front door promises that any interleaving of sessions —
single queries, queries and DML handed to caller-owned threads that
share one session, batches, DML — is equivalent to a
sequential ordering of the same operations per access path.  The engine
records that ordering as the operation journal (sequence numbers stamped
while each operation still holds its gate / path locks), so the oracle is
direct: run a multi-threaded session workload with the journal enabled,
then replay the journal **sequentially** on a fresh, identically seeded
database and demand that every query reproduces its positions, projected
columns, aggregates and cost counters bit for bit, and every DML op lands
on its recorded rowid.  Exercised across every registered indexing mode,
plus a hammer that streams DML against ``execute_many`` batches
(the fence the ROADMAP called out as the last open concurrency gap).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.strategies import available_strategies
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection

SIZE = 1_200
DOMAIN = 10_000
WORKERS = 3
STEPS_PER_WORKER = 12

MODE_OPTIONS = {
    "partitioned-cracking": {"partitions": 3},
    "stochastic-cracking": {"seed": 5},
}

#: the partitioned column with its own pool (the test takes
#: ``pooled_fan_out``, so the fan-out really runs on it), and the updatable
#: column under the gradual policy
EXTRA_CASES = [
    ("partitioned-cracking", {"partitions": 3, "parallel": True}),
    ("updatable-cracking", {"policy": "gradual", "merge_batch": 2}),
]


def all_modes():
    managed = ["scan", "full-index", "online", "soft"]
    adaptive = [name for name in available_strategies() if name not in managed]
    cases = [(mode, MODE_OPTIONS.get(mode, {})) for mode in managed + adaptive]
    return cases + EXTRA_CASES


def build_database(mode, options, rng_seed=1919):
    rng = np.random.default_rng(rng_seed)
    database = Database(f"sessions-{mode}")
    database.create_table(
        "facts",
        {
            "key": rng.integers(0, DOMAIN, size=SIZE).astype(np.int64),
            "aux": rng.integers(0, 1_000, size=SIZE).astype(np.int64),
            "payload": rng.uniform(0, 100, size=SIZE),
        },
    )
    if mode != "scan":
        database.set_indexing("facts", "key", mode, **options)
    database.set_indexing("facts", "aux", "full-index")
    return database


def assert_query_bit_identical(replayed, original, label):
    assert np.array_equal(replayed.positions, original.positions), label
    assert set(replayed.columns) == set(original.columns), label
    for name in original.columns:
        assert np.array_equal(replayed.columns[name], original.columns[name]), label
    assert replayed.aggregates.keys() == original.aggregates.keys(), label
    for name, value in original.aggregates.items():
        other = replayed.aggregates[name]
        assert (np.isnan(value) and np.isnan(other)) or value == other, label
    assert replayed.counters == original.counters, label


def replay_journal(journal, database, context):
    """Sequentially re-apply a linearized history; every op must match."""
    session = database.session()
    for record in journal:
        label = f"{context}, sequence {record.sequence} ({record.kind})"
        if record.kind == "query":
            replayed = session.execute(record.payload)
            assert_query_bit_identical(replayed, record.result, label)
        elif record.kind == "insert":
            assert session.insert_row(record.table, record.payload) == \
                record.result, label
        elif record.kind == "delete":
            session.delete_row(record.table, record.payload)
        elif record.kind == "update":
            old_rowid, values = record.payload
            assert session.update_row(record.table, old_rowid, values) == \
                record.result, label
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown journal kind {record.kind!r}")
    session.close()


def assert_same_final_state(concurrent, oracle, context):
    assert (
        concurrent.visible_row_count("facts")
        == oracle.visible_row_count("facts")
    ), context
    for name in ("key", "aux", "payload"):
        assert np.array_equal(
            concurrent.table("facts")[name].values,
            oracle.table("facts")[name].values,
        ), f"{context}: column {name} diverged"
    assert np.array_equal(
        concurrent.table("facts").tombstones, oracle.table("facts").tombstones
    ), context


def session_worker(database, worker_index, use_pool_dml, errors):
    """One scripted session: queries, queries on a worker-owned pool that
    calls the same session, and DML (on that pool too when
    ``use_pool_dml``).

    Each worker owns a disjoint slice of the initial rowids (plus every
    row it inserts itself), so deletes/updates never target a row another
    worker removed — the interleaving stays unconstrained while each
    single operation remains valid.
    """
    rng = np.random.default_rng(9_000 + worker_index)
    own_rows = list(range(worker_index * (SIZE // WORKERS),
                          (worker_index + 1) * (SIZE // WORKERS)))
    try:
        with database.session(name=f"worker-{worker_index}") as session, \
                ThreadPoolExecutor(max_workers=2) as pool:
            futures = []
            for step in range(STEPS_PER_WORKER):
                action = int(rng.integers(0, 6))
                low = int(rng.integers(0, DOMAIN - 1_500))
                if action == 0:
                    session.execute(
                        Query.range_query("facts", "key", low, low + 1_500)
                    )
                elif action == 1:
                    futures.append(pool.submit(
                        session.execute,
                        Query(
                            table="facts",
                            selections=[RangeSelection("key", low, low + 2_000)],
                            projections=["payload"],
                            aggregates=[Aggregate("payload", "sum"),
                                        Aggregate("payload", "count")],
                        ),
                    ))
                elif action == 2:
                    aux_low = int(rng.integers(0, 800))
                    session.query("facts").where(
                        "aux", aux_low, aux_low + 150
                    ).select("key").run()
                elif action == 3:
                    values = {
                        "key": int(rng.integers(0, DOMAIN)),
                        "aux": worker_index,
                        "payload": 0.25,
                    }
                    if use_pool_dml:
                        own_rows.append(
                            pool.submit(session.insert_row, "facts", values).result()
                        )
                    else:
                        own_rows.append(session.insert_row("facts", values))
                elif action == 4 and own_rows:
                    victim = own_rows.pop(int(rng.integers(0, len(own_rows))))
                    if use_pool_dml:
                        pool.submit(session.delete_row, "facts", victim).result()
                    else:
                        session.delete_row("facts", victim)
                elif own_rows:
                    victim = own_rows.pop(int(rng.integers(0, len(own_rows))))
                    own_rows.append(
                        session.update_row(
                            "facts", victim,
                            {"key": int(rng.integers(0, DOMAIN))},
                        )
                    )
            for future in futures:
                future.result()
    except Exception as error:  # noqa: BLE001 - surfaced by the test
        errors.append((worker_index, error))


@pytest.mark.parametrize(
    "mode,options", all_modes(), ids=lambda value: str(value)
)
def test_concurrent_sessions_replay_sequentially(mode, options, pooled_fan_out):
    database = build_database(mode, options)
    database.record_journal = True
    errors = []
    threads = [
        threading.Thread(
            target=session_worker,
            args=(database, index, index == 0, errors),
        )
        for index in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"mode={mode}: session workers failed: {errors}"

    journal = database.operation_journal()
    assert len(journal) >= WORKERS * STEPS_PER_WORKER - WORKERS  # few no-ops
    context = f"mode={mode}, options={options}"
    oracle = build_database(mode, options)
    replay_journal(journal, oracle, context)
    assert_same_final_state(database, oracle, context)


@pytest.mark.parametrize(
    "mode", ["scan", "full-index", "cracking", "updatable-cracking", "partitioned-cracking"]
)
def test_dml_during_parallel_batches_hammer(mode):
    """A DML stream hammers the gate while batches run.

    Inserts and deletes issued mid-batch must fence behind the in-flight
    cracks (never racing the access-path rebuild) and the whole history
    must still replay sequentially bit for bit.
    """
    options = MODE_OPTIONS.get(mode, {})
    database = build_database(mode, options)
    database.record_journal = True
    errors = []
    rounds = 4

    def mixed_batch(seed):
        rng = np.random.default_rng(seed)
        ranges = []
        for _ in range(2):
            low = int(rng.integers(0, DOMAIN - 1_500))
            ranges.append((low, low + 1_500))
        # a duplicate, a nested and a touching range: one pass cracks them all
        low, high = ranges[0]
        ranges += [ranges[1], (low + 300, high - 300), (high, high + 700)]
        queries = [Query.range_query("facts", "key", low, high)
                   for low, high in ranges]
        for _ in range(2):
            low = int(rng.integers(0, 800))
            queries.append(Query.range_query("facts", "aux", low, low + 150))
        queries.append(
            Query(
                table="facts",
                selections=[RangeSelection("key", 0, DOMAIN // 2)],
                aggregates=[Aggregate("payload", "mean")],
            )
        )
        return queries

    def batch_worker():
        try:
            with database.session(name="batches") as session:
                for round_index in range(rounds):
                    session.execute_many(mixed_batch(300 + round_index))
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    def dml_worker():
        rng = np.random.default_rng(555)
        own_rows = list(range(SIZE - 200, SIZE))
        try:
            with database.session(name="dml") as session:
                for _ in range(30):
                    if rng.random() < 0.6 or not own_rows:
                        own_rows.append(
                            session.insert_row(
                                "facts",
                                {"key": int(rng.integers(0, DOMAIN)),
                                 "aux": 7, "payload": 1.5},
                            )
                        )
                    else:
                        victim = own_rows.pop(
                            int(rng.integers(0, len(own_rows)))
                        )
                        session.delete_row("facts", victim)
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [
        threading.Thread(target=batch_worker),
        threading.Thread(target=dml_worker),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"mode={mode}: hammer threads failed: {errors}"

    journal = database.operation_journal()
    assert len(journal) == rounds * 8 + 30
    # batches hold the table gate shared for their whole duration, so DML
    # never interleaves *inside* a batch: in the linearized history every
    # batch's queries form a contiguous run
    batch_sequences = [
        record.sequence for record in journal
        if record.kind == "query" and record.session == "batches"
    ]
    runs = np.split(
        np.asarray(batch_sequences),
        np.flatnonzero(np.diff(batch_sequences) != 1) + 1,
    )
    assert len(runs) <= rounds, (
        f"mode={mode}: DML interleaved inside a batch "
        f"({len(runs)} contiguous runs for {rounds} batches)"
    )

    context = f"hammer mode={mode}"
    oracle = build_database(mode, options)
    replay_journal(journal, oracle, context)
    assert_same_final_state(database, oracle, context)


@pytest.mark.parametrize("mode", ["cracking", "partitioned-cracking"])
def test_concurrent_batches_on_one_column_replay(mode):
    """Two sessions crack one column with batches at the same time.

    A batch holds its path lock from its one-pass crack until its last
    query is journaled, so no query of the other batch can take a sequence
    number in between: each batch is one contiguous run of the journal, and
    the journal replays bit for bit.
    """
    options = MODE_OPTIONS.get(mode, {})
    database = build_database(mode, options)
    database.record_journal = True
    errors = []
    rounds, size = 5, 6

    def batch_worker(worker):
        rng = np.random.default_rng(40 + worker)
        try:
            with database.session(name=f"batches-{worker}") as session:
                for _ in range(rounds):
                    lows = rng.integers(0, DOMAIN - 1_500, size).tolist()
                    session.execute_many(
                        [Query.range_query("facts", "key", low, low + 1_500)
                         for low in lows])
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=batch_worker, args=(worker,))
               for worker in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"mode={mode}: batch threads failed: {errors}"

    journal = database.operation_journal()
    assert len(journal) == 2 * rounds * size
    for worker in range(2):
        sequences = np.asarray([record.sequence for record in journal
                                if record.session == f"batches-{worker}"])
        assert len(np.flatnonzero(np.diff(sequences) != 1)) <= rounds - 1, (
            f"mode={mode}: another batch took a sequence number inside a batch")
    context = f"concurrent batches mode={mode}"
    oracle = build_database(mode, options)
    replay_journal(journal, oracle, context)
    assert_same_final_state(database, oracle, context)


def test_journal_disabled_by_default():
    database = build_database("cracking", {})
    with database.session() as session:
        session.execute(Query.range_query("facts", "key", 0, 1_000))
        session.insert_row("facts", {"key": 1, "aux": 1, "payload": 1.0})
        assert database.operation_journal() == []
        database.record_journal = True
        session.execute(Query.range_query("facts", "key", 0, 1_000))
    journal = database.operation_journal()
    assert len(journal) == 1 and journal[0].kind == "query"
    database.record_journal = False
    with database.session() as session:
        session.execute(Query.range_query("facts", "key", 0, 1_000))
    assert database.operation_journal() == journal
