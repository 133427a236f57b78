"""Oracle: queueing a table's tombstones in one call is the per-row loop.

``set_indexing`` hands a new updatable column its table's tombstones through
``delete_base_rows`` (one gather of the base, two typed appends, one set
update) instead of one ``delete`` per rowid.  The reference is the loop
itself, over the same sorted rowids on a twin column.  Right after the call
the two must hold the same pending queues in the same order (values and
rowids, typecode included), the same pending set and the same counters;
then K later operations — searches, batches, inserts and deletes of the
rows still live — must answer the same rowids in the same order, charge the
same six counters and leave the same state behind.

Covered: a column numbered from 0 or from an offset and both merge
policies, each its own case; int32, int64, float32 and float64 bases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.cost.counters import CostCounters

DOMAIN = 200
DTYPES = (np.int32, np.int64, np.float32, np.float64)


def make_values(dtype, size, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, DOMAIN, size=size).astype(dtype)


bases = st.builds(make_values, dtype=st.sampled_from(DTYPES),
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
    st.tuples(st.just("batch"), st.lists(ranges, min_size=2, max_size=4)),
    st.tuples(st.just("insert"), key),
    st.tuples(st.just("delete"), st.integers(0)),
), max_size=12)
def state(shard):
    arrays = ((shard.values.tolist(), shard.rowids.tolist())
              if shard.materialised else None)
    return (arrays, shard.pieces(), shard._converged, shard.queries_processed,
            shard.merges_performed,
            shard._delete_queue_values.typecode, list(shard._delete_queue_values),
            list(shard._delete_queue_rowids), sorted(shard._pending_delete_rowid_set),
            list(shard._pending_insert_values), list(shard._pending_insert_rowids),
            sorted(shard._removed_base_rowids), len(shard))


def step(column, op, argument, victim):
    counters = CostCounters()
    if op == "search":
        answer = column.search(*argument, counters).tolist()
    elif op == "batch":
        each = [CostCounters() for _ in argument]
        answers = column.search_many(argument, each)
        return [a.tolist() for a in answers], [c.as_dict() for c in each]
    elif op == "insert":
        answer = column.insert(argument, counters)
    else:
        answer = column.delete(victim, counters)
    return answer, [counters.as_dict()]


def run(make, values, picks, stream):
    bulk, looped = make(), make()
    first = bulk.rowid_base
    rowids = np.arange(first, first + len(values), dtype=np.int64)
    tombstones = rowids[np.array(picks[: len(values)], dtype=bool)]
    bulk.delete_base_rows(tombstones)
    for rowid in tombstones.tolist():
        looped.delete(rowid)
    assert state(bulk) == state(looped)
    assert bulk.pending_deletes == len(tombstones)
    live = sorted(set(rowids.tolist()) - set(tombstones.tolist()))
    for op, argument in stream:
        victim = None
        if op == "delete":
            if not live:
                continue
            victim = live.pop(argument % len(live))
        got = step(bulk, op, argument, victim)
        assert got == step(looped, op, argument, victim), (op, argument)
        if op == "insert":
            live.append(got[0])
        assert state(bulk) == state(looped)
    bulk.check_invariants()
    looped.check_invariants()


picks = st.lists(st.booleans(), min_size=120, max_size=120)


@pytest.mark.parametrize("rowid_base", [0, 1_000])
@pytest.mark.parametrize("policy", ["ripple", "gradual"])
@given(values=bases, picks=picks, stream=steps, merge_batch=st.integers(1, 3))
@settings(max_examples=65, deadline=None)
def test_bulk_delete_is_the_per_row_loop(values, picks, stream, merge_batch,
                                         rowid_base, policy):
    run(lambda: UpdatableCrackedColumn(values, rowid_base=rowid_base, policy=policy,
                                       merge_batch=merge_batch),
        values, picks, stream)
