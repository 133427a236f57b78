"""Property suite: ``execute_many`` is bit-identical to sequential execution.

For every registered indexing mode, plus the partitioned columns' own
thread pool and the gradual merge policy, two identically seeded databases
receive the same DML stream before the first round and between rounds, and
the same mixed same-table batches — queries over the mode-under-test column
interleaved with scans and full-index lookups over sibling columns.  One
database runs each batch through one ``execute_many``, which cracks each
path its queries select through in one pass; the other issues the same
queries one ``execute`` at a time.  Every result must match **bit for
bit**: positions (order included), projected columns, aggregates and cost
counters, and a scan-based model pins post-DML tombstone visibility.  A
batch called as the e21 ladder calls it, ``execute_many(queries, True,
workers)``, equals a plain ``execute_many`` bit for bit in every mode and
across DML between batches: those arguments are accepted and ignored.  A
batch over two cracking paths journals its queries in submission order,
and its journal replays bit for bit.
"""

import numpy as np
import pytest

from repro.core.strategies import available_strategies
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection

SIZE = 2_000
DOMAIN = 10_000

#: options per mode (defaults empty)
MODE_OPTIONS = {
    "partitioned-cracking": {"partitions": 3},
    "stochastic-cracking": {"seed": 5},
}

EXTRA_CASES = [
    # a column that merges at most two pending updates per query, and one
    # that merges one
    ("updatable-cracking", {"policy": "gradual", "merge_batch": 2}),
    ("updatable-cracking", {"policy": "gradual", "merge_batch": 1}),
    # thread fan-out inside the partitioned column: the same bit-identity
    # (answers and counters) must hold when partition work runs on the
    # column's own pool, also when one worker takes the hand-offs in turn
    ("partitioned-cracking", {"partitions": 3, "parallel": True}),
    ("partitioned-cracking", {"partitions": 3, "parallel": True, "max_workers": 1}),
]


def all_modes():
    """Every registry name at its options (the id is the name), then the
    extra cases (the id adds what they switch on)."""
    cases = [pytest.param(mode, MODE_OPTIONS.get(mode, {}), id=mode)
             for mode in available_strategies()]
    for mode, options in EXTRA_CASES:
        switched = ["parallel"] if options.get("parallel") else []
        switched += ["one-worker"] if options.get("max_workers") == 1 else []
        switched += [options["policy"]] if "policy" in options else []
        switched += ["one-merge"] if options.get("merge_batch") == 1 else []
        cases.append(pytest.param(mode, options, id="-".join([mode] + switched)))
    return cases


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


def dml_between_rounds(database, round_index):
    """One insert and one delete; returns ``(rowid, value, victim)``."""
    value = int(np.random.default_rng(7_000 + round_index).integers(0, DOMAIN))
    victim = round_index * 3
    with database.session() as session:
        rowid = session.insert_row("facts", {"key": value, "aux": 2, "payload": 1.5})
        session.delete_row("facts", victim)
    return rowid, value, victim


def two_path_database():
    """Cracking on both ``key`` and ``aux``."""
    database = build_database("cracking", {})
    database.set_indexing("facts", "aux", "cracking")
    return database


def run_batch(database, queries):
    with database.session() as session:
        return session.execute_many(queries)


def run_parallel_batch(database, queries, max_workers=4):
    """The e21 ladder's call, positional: ``execute_many(queries, True,
    max_workers)`` — arguments a batch accepts and ignores."""
    with database.session() as session:
        return session.execute_many(queries, True, max_workers)


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


def assert_bit_identical(expected, actual, context):
    assert len(expected) == len(actual)
    for position, (left, right) in enumerate(zip(expected, actual)):
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


def assert_matches_model(queries, results, model, context):
    """Every answer selecting on the key column alone is the model's."""
    for query, result in zip(queries, results):
        if [selection.column for selection in query.selections] != ["key"]:
            continue
        low, high = query.selections[0].bounds
        expected = {
            rowid for rowid, value in model.items()
            if (low is None or value >= low) and (high is None or value < high)
        }
        assert set(result.positions.tolist()) == expected, (
            f"{context}: tombstone-inconsistent answer on [{low}, {high})"
        )


@pytest.mark.parametrize("mode,options", all_modes())
def test_batch_equals_single_executes(mode, options, pooled_fan_out):
    """One ``execute_many`` per interaction against one ``execute`` per query
    on a twin, with the same DML before the first round and between rounds:
    answers in order, aggregates and counters bit for bit, every round
    (cold, adapting, and mostly cracked), and every key-column answer equal
    to the tombstone model's."""
    batched_db = build_database(mode, options)
    single_db = build_database(mode, options)
    model = apply_dml(batched_db, np.random.default_rng(77))
    assert model == apply_dml(single_db, np.random.default_rng(77))
    for round_index in range(4):
        if round_index:
            changes = [dml_between_rounds(db, round_index)
                       for db in (batched_db, single_db)]
            assert changes[0] == changes[1]
            rowid, value, victim = changes[0]
            model[rowid] = value
            model.pop(victim, None)
        queries = mixed_batch(np.random.default_rng(900 + round_index))
        batched = run_batch(batched_db, queries)
        with single_db.session() as session:
            singles = [session.execute(query) for query in queries]
        context = f"mode={mode}, options={options}, round={round_index}"
        assert_bit_identical(singles, batched, context)
        assert_matches_model(queries, batched, model, context)
    if options.get("parallel"):
        assert batched_db.access_path("facts", "key")._pool is not None


@pytest.mark.parametrize("mode,options", all_modes())
def test_parallel_batches_bit_identical_across_modes(mode, options,
                                                     pooled_fan_out):
    """A batch asked for ``parallel=True`` with workers is the same batch:
    after the same DML, every round's answers, aggregates and counters equal
    a plain ``execute_many`` on a twin bit for bit."""
    plain_db = build_database(mode, options)
    parallel_db = build_database(mode, options)
    assert apply_dml(plain_db, np.random.default_rng(4242)) == \
        apply_dml(parallel_db, np.random.default_rng(4242))
    for round_index in range(3):
        queries = mixed_batch(np.random.default_rng(100 + round_index))
        assert_bit_identical(
            run_batch(plain_db, queries), run_parallel_batch(parallel_db, queries),
            f"mode={mode}, options={options}, batch={round_index}",
        )


@pytest.mark.parametrize("mode", ["scan", "full-index", "cracking", "updatable-cracking",
                                  "partitioned-cracking"])
def test_interleaved_dml_and_batches_stay_consistent(mode):
    """DML between batches (never during) keeps batches asked for
    ``parallel=True`` identical to plain ones — on a path that absorbs the
    DML and on the partitioned one, which is rebuilt after it."""
    plain_db = build_database(mode, MODE_OPTIONS.get(mode, {}))
    parallel_db = build_database(mode, MODE_OPTIONS.get(mode, {}))
    for round_index in range(3):
        assert dml_between_rounds(plain_db, round_index) == \
            dml_between_rounds(parallel_db, round_index)
        queries = mixed_batch(np.random.default_rng(500 + round_index))
        assert_bit_identical(
            run_batch(plain_db, queries),
            run_parallel_batch(parallel_db, queries, max_workers=3),
            f"mode={mode}, round={round_index}",
        )


def test_a_two_path_batch_journals_in_submission_order():
    """A batch that cracks both ``key`` and ``aux`` holds both path locks
    until its last journal record and journals its queries in submission
    order (not path by path); the journal replays bit for bit."""
    database = two_path_database()
    database.record_journal = True
    submitted = []
    with database.session() as session:
        for round_index in range(3):
            rng = np.random.default_rng(600 + round_index)
            keys = [Query.range_query("facts", "key", low, high)
                    for low, high in key_ranges(rng)]
            lows = rng.integers(0, 800, 4).tolist()
            auxes = [Query.range_query("facts", "aux", low, low + 150)
                     for low in lows]
            queries = [query for pair in zip(keys, auxes) for query in pair]
            queries += keys[len(auxes):]
            submitted += zip(queries, session.execute_many(queries))
    journal = database.operation_journal()
    assert len(journal) == len(submitted)
    for record, (query, result) in zip(journal, submitted):
        assert record.payload is query and record.result is result
    replay = two_path_database()
    with replay.session() as session:
        replayed = [session.execute(record.payload) for record in journal]
    assert_bit_identical(replayed, [record.result for record in journal],
                         "two-path batch replay")
