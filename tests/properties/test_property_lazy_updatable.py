"""Oracle: an updatable cracked column is observably the eager one.

An updatable column (``UpdatableCrackedColumn``, and every shard of a
``PartitionedUpdatableCrackedColumn``) builds its cracker arrays on first use
and charges that copy to no operation.  The reference is the same column
forced eager: ``_materialise(None)`` right after construction, which is the
copy made up front, charged to nobody.  After every step of a random stream
the two must hold the same arrays (an unmaterialised column's are its base,
numbered from ``rowid_base``), the same pieces, the same pending queues and
``converged`` latch, and every step must answer the same rowids in the same
order and charge the same six counters.

The streams mix DML before the first query, open and one-sided ranges,
batches, ``crack_at``, explicit ``converged`` questions and both merge
policies over random, sorted, constant, duplicate-heavy, empty and one-row
bases, numbered from 0 or from an offset, whole or in partitioned shards.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.partitioned import PartitionedUpdatableCrackedColumn
from repro.cost.counters import CostCounters

DOMAIN = 200

SHAPES = ("random", "sorted", "constant", "duplicates", "empty", "one-row")


def make_values(shape, size, seed):
    rng = np.random.default_rng(seed)
    if shape == "empty":
        return np.empty(0, dtype=np.int64)
    if shape == "one-row":
        size = 1
    values = rng.integers(0, DOMAIN, size=size).astype(np.int64)
    if shape == "sorted":
        values.sort()
    elif shape == "constant":
        values[:] = DOMAIN // 2
    elif shape == "duplicates":
        values %= 3
    return values


bases = st.builds(make_values, shape=st.sampled_from(SHAPES),
                  size=st.integers(0, 120), seed=st.integers(0, 2**16))
key = st.integers(-3, DOMAIN + 3)
bound = st.one_of(st.none(), key)


def ordered(low, high):
    if low is not None and high is not None and high < low:
        low, high = high, low
    return low, high


ranges = st.builds(ordered, bound, bound)
steps = st.lists(st.one_of(
    st.tuples(st.just("search"), ranges),
    st.tuples(st.just("search"), ranges),
    st.tuples(st.just("batch"), st.lists(ranges, min_size=2, max_size=4)),
    st.tuples(st.just("crack"), key),
    st.tuples(st.just("insert"), key),
    st.tuples(st.just("delete"), st.integers(0)),
    st.tuples(st.just("update"), st.tuples(st.integers(0), key)),
    st.tuples(st.just("ask"), st.none()),
), max_size=16)
options = st.fixed_dictionaries({
    "policy": st.sampled_from(["ripple", "gradual"]),
    "merge_batch": st.integers(1, 3),
})


def shards(column):
    partitions = getattr(column, "partitions", None)
    return [column] if partitions is None else [p.cracked for p in partitions]


def forced_eager(column):
    for shard in shards(column):
        shard._materialise(None)
    return column


def state(shard):
    """What the column holds, as an eager column would hold it."""
    if shard.materialised:
        values, rowids = shard.values, shard.rowids
    else:
        values = shard._base
        rowids = np.arange(shard.rowid_base, shard.rowid_base + len(values))
    return (values.tolist(), rowids.tolist(), shard.pieces(),
            shard._converged, shard.queries_processed, shard.merges_performed,
            list(shard._pending_insert_rowids), list(shard._delete_queue_rowids))


def charged(counters):
    return [c.as_dict() for c in counters]


def step(column, op, argument, victim):
    """One operation (``victim`` is the row a delete or update names);
    returns what it answered and charged."""
    counters = CostCounters()
    if op == "search":
        answer = column.search(*argument, counters).tolist()
    elif op == "batch":
        each = [CostCounters() for _ in argument]
        answers = column.search_many(argument, each)
        return [a.tolist() for a in answers], charged(each)
    elif op == "crack":
        answer = column.crack_at(argument, counters)
    elif op == "insert":
        answer = column.insert(argument, counters)
    elif op == "ask":
        answer = column.converged
    elif op == "delete":
        answer = column.delete(victim, counters)
    else:
        answer = column.update(victim, argument[1], counters)
    return answer, charged([counters])


def run(make, values, stream, crack=True):
    lazy, eager = make(), forced_eager(make())
    assert [state(s) for s in shards(lazy)] == [state(s) for s in shards(eager)]
    first = shards(lazy)[0].rowid_base
    live = list(range(first, first + len(values)))
    for op, argument in stream:
        victim = None
        if op in ("delete", "update"):
            if not live:
                continue
            victim = live.pop((argument if op == "delete" else argument[0]) % len(live))
        elif op == "crack" and not crack:
            continue
        got = step(lazy, op, argument, victim)
        assert got == step(eager, op, argument, victim), (op, argument)
        if op in ("insert", "update"):
            live.append(got[0])
        for mine, theirs in zip(shards(lazy), shards(eager)):
            assert state(mine) == state(theirs), (op, argument)
        assert len(lazy) == len(eager)
    assert lazy.converged == eager.converged
    lazy.check_invariants()
    eager.check_invariants()


@given(values=bases, stream=steps, options=options,
       rowid_base=st.sampled_from([0, 1_000]))
@settings(max_examples=150, deadline=None)
def test_updatable_column_is_the_eager_column(values, stream, options, rowid_base):
    run(lambda: UpdatableCrackedColumn(values, rowid_base=rowid_base, **options),
        values, stream)


@given(values=bases, stream=steps, options=options,
       partitions=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_partitioned_updatable_column_is_the_eager_column(
        values, stream, options, partitions):
    def make():
        return PartitionedUpdatableCrackedColumn(values, partitions=partitions,
                                                 **options)
    run(make, values, stream, crack=False)


def test_a_latched_empty_base_then_an_insert():
    """An empty base latches on its first (open) search; the insert after it
    is merged by the next search, and a crack follows."""
    run(lambda: UpdatableCrackedColumn(np.empty(0, dtype=np.int64)),
        np.empty(0, dtype=np.int64),
        [("search", (None, None)), ("insert", 0), ("search", (None, 1)),
         ("crack", 0)])
