"""Property suite: ``execute_many`` is bit-identical to sequential execution.

For every registered indexing mode (managed and adaptive), two identically
seeded databases receive the same DML stream and the same mixed same-table
batches — queries over the mode-under-test column interleaved with scans
and full-index lookups over sibling columns, so read-only fan-out and
per-access-path serialization are both exercised.  One database executes
every batch with ``parallel=True``, the other sequentially; every result
must match **bit for bit**: positions (order included), projected columns,
aggregates and cost counters.  A scan-based model additionally pins
post-DML tombstone visibility.  A batch, which cracks each path its queries
select through in one pass, must also equal the same queries issued one
``execute`` at a time.
"""

import numpy as np
import pytest

from repro.core.strategies import available_strategies
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection

SIZE = 2_000
DOMAIN = 10_000

#: options per mode (defaults empty); repartition variants ride along to
#: pin the always-exclusive classification of repartitioning columns
MODE_OPTIONS = {
    "partitioned-cracking": {"partitions": 3},
    "partitioned-updatable-cracking": {"partitions": 3},
    "stochastic-cracking": {"seed": 5},
}

EXTRA_CASES = [
    ("partitioned-cracking", {"partitions": 3, "repartition": True,
                              "max_partition_rows": 1_200}),
    ("partitioned-updatable-cracking", {"partitions": 3, "repartition": True,
                                        "max_partition_rows": 1_200}),
    # thread fan-out inside the partitioned column: the same sequential-vs-
    # parallel bit-identity (answers and counters) must hold when partition
    # work runs on the column's own pool, with and without repartitioning
    ("partitioned-cracking", {"partitions": 3, "parallel": True}),
    ("partitioned-updatable-cracking", {"partitions": 3, "parallel": True,
                                        "repartition": True,
                                        "max_partition_rows": 1_200}),
]


def all_modes():
    managed = ["scan", "full-index", "online", "soft"]
    adaptive = [name for name in available_strategies() if name not in managed]
    cases = [(mode, MODE_OPTIONS.get(mode, {})) for mode in managed + adaptive]
    return cases + EXTRA_CASES


def build_database(mode, options, rng_seed=999):
    rng = np.random.default_rng(rng_seed)
    database = Database(f"prop-{mode}")
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


def apply_dml(database, rng):
    """Identical insert/delete stream on both databases; returns the model."""
    values = database.table("facts")["key"].values
    model = {int(i): int(v) for i, v in enumerate(values)}
    with database.session() as session:
        for _ in range(25):
            value = int(rng.integers(0, DOMAIN))
            rowid = session.insert_row(
                "facts", {"key": value, "aux": 1, "payload": 0.25}
            )
            model[rowid] = value
        for victim in rng.choice(sorted(model), size=40, replace=False):
            session.delete_row("facts", int(victim))
            del model[int(victim)]
    return model


def run_batch(database, queries, **fan_out):
    with database.session() as session:
        return session.execute_many(queries, **fan_out)


def key_ranges(rng, count=6):
    """Ranges over the key column as one interaction issues them: fresh
    ones, plus a duplicate, a nested and a touching one of those."""
    ranges = []
    for _ in range(count):
        low = int(rng.integers(0, DOMAIN - 1_500))
        ranges.append((low, low + 1_500))
    low, high = ranges[0]
    ranges += [ranges[1], (low + 300, high - 300), (high, high + 700)]
    return ranges


def mixed_batch(rng):
    """Same-table batch mixing the indexed column, scans and aggregates."""
    queries = [Query.range_query("facts", "key", low, high)
               for low, high in key_ranges(rng)]
    for _ in range(3):
        low = int(rng.integers(0, 800))
        queries.append(Query.range_query("facts", "aux", low, low + 150))
    queries.append(
        Query(
            table="facts",
            selections=[RangeSelection("key", 0, DOMAIN // 2)],
            projections=["payload"],
            aggregates=[Aggregate("payload", "sum"),
                        Aggregate("payload", "count")],
        )
    )
    queries.append(Query(table="facts", projections=["aux"]))
    rng.shuffle(queries)
    return queries


def assert_bit_identical(sequential, parallel, context):
    assert len(sequential) == len(parallel)
    for position, (left, right) in enumerate(zip(sequential, parallel)):
        label = f"{context}, query {position}"
        assert np.array_equal(left.positions, right.positions), label
        assert set(left.columns) == set(right.columns), label
        for name in left.columns:
            assert np.array_equal(left.columns[name], right.columns[name]), label
        assert left.aggregates.keys() == right.aggregates.keys(), label
        for name, value in left.aggregates.items():
            other = right.aggregates[name]
            assert (np.isnan(value) and np.isnan(other)) or value == other, label
        assert left.counters == right.counters, label


@pytest.mark.parametrize(
    "mode,options", all_modes(), ids=lambda value: str(value)
)
def test_parallel_batches_bit_identical_across_modes(mode, options,
                                                     pooled_fan_out):
    sequential_db = build_database(mode, options)
    parallel_db = build_database(mode, options)

    dml_rng_a = np.random.default_rng(4242)
    dml_rng_b = np.random.default_rng(4242)
    model = apply_dml(sequential_db, dml_rng_a)
    model_check = apply_dml(parallel_db, dml_rng_b)
    assert model == model_check

    # several consecutive batches: the first ones crack/merge/build, later
    # ones may hit converged (read-only) structures — classification is
    # re-derived per batch and must agree between the two databases
    for round_index in range(3):
        batch_rng_a = np.random.default_rng(100 + round_index)
        batch_rng_b = np.random.default_rng(100 + round_index)
        queries_a = mixed_batch(batch_rng_a)
        queries_b = mixed_batch(batch_rng_b)
        sequential = run_batch(sequential_db, queries_a, parallel=False)
        parallel = run_batch(
            parallel_db, queries_b, parallel=True, max_workers=4
        )
        assert_bit_identical(
            sequential, parallel, f"mode={mode}, options={options}, "
            f"batch={round_index}"
        )
        # tombstone visibility: every key-column answer matches the model
        for query, result in zip(queries_a, sequential):
            selections = {
                s.column: s.bounds for s in query.selections
            }
            if list(selections) != ["key"]:
                continue
            low, high = selections["key"]
            expected = {
                rowid for rowid, value in model.items()
                if (low is None or value >= low) and (high is None or value < high)
            }
            assert set(result.positions.tolist()) == expected, (
                f"mode={mode}: tombstone-inconsistent answer on [{low}, {high})"
            )
    if options.get("parallel"):
        assert parallel_db.access_path("facts", "key").cracked._pool is not None


@pytest.mark.parametrize("mode", ["scan", "full-index", "cracking"])
def test_interleaved_dml_and_batches_stay_consistent(mode):
    """DML between batches (never during) keeps parallel runs identical."""
    sequential_db = build_database(mode, {})
    parallel_db = build_database(mode, {})
    for round_index in range(3):
        for db in (sequential_db, parallel_db):
            rng = np.random.default_rng(7_000 + round_index)
            value = int(rng.integers(0, DOMAIN))
            with db.session() as session:
                session.insert_row("facts", {"key": value, "aux": 2, "payload": 1.5})
                session.delete_row("facts", round_index * 3)
        rng_a = np.random.default_rng(500 + round_index)
        rng_b = np.random.default_rng(500 + round_index)
        sequential = run_batch(sequential_db, mixed_batch(rng_a), parallel=False)
        parallel = run_batch(
            parallel_db, mixed_batch(rng_b), parallel=True, max_workers=3
        )
        assert_bit_identical(
            sequential, parallel, f"mode={mode}, round={round_index}"
        )


@pytest.mark.parametrize("mode", available_strategies())
def test_batch_equals_single_executes(mode):
    """One ``execute_many`` per interaction against one ``execute`` per query
    on a twin, after the same DML: answers in order, aggregates and counters
    bit for bit, every round (cold, adapting, and mostly cracked)."""
    options = MODE_OPTIONS.get(mode, {})
    batched_db = build_database(mode, options)
    single_db = build_database(mode, options)
    assert apply_dml(batched_db, np.random.default_rng(77)) == \
        apply_dml(single_db, np.random.default_rng(77))
    for round_index in range(4):
        queries = mixed_batch(np.random.default_rng(900 + round_index))
        batched = run_batch(batched_db, queries)
        with single_db.session() as session:
            singles = [session.execute(query) for query in queries]
        assert_bit_identical(singles, batched,
                             f"mode={mode}, round={round_index}")
