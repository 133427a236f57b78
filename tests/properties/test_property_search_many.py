"""Oracle: a batch of searches is the same k searches, one after the other.

``search_many(ranges, counters_list)`` on a cracked column — whole or
partitioned — must be indistinguishable from calling ``search(low, high,
counters)`` once per range, in order, on an identical twin: every answer
equal *in order*, every query's counters equal, and the state left behind
equal — cracker values and row identifiers, the cracker index's boundary
values and positions and ``queries_processed``.  A follow-up search on
both then has to agree too.

The columns are the ones where a key's type matters (int64 around
``2**60``, uint64 past ``2**63``, int32, float64), in every state a batch can
meet: cold, mid-refinement, converged and — on a whole column, read-only or
updatable, since a partitioned one takes no DML — with pending inserts and
deletes under both merge policies (the gradual one merging three or one
per search), and updatable ("eager pending") with
updates pending before any crack.  The batches hold the shapes
a one-pass crack has to get right: duplicate, nested and touching ranges,
empty ones (``low == high``) and half-open ones (``None``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn
from repro.cost.counters import CostCounters

SIZE = 240
WIDE = 2**60
UINT64 = np.iinfo(np.uint64)
INT32 = np.iinfo(np.int32)

#: column kind -> values(rng)
KINDS = {
    "int64 around 2**60": lambda rng: np.int64(WIDE) + rng.integers(-400, 401, SIZE),
    "uint64 past 2**63": lambda rng: rng.integers(
        2**63 - 400, 2**63 + 401, SIZE, dtype=np.uint64),
    "int32": lambda rng: np.append(
        rng.integers(-300, 301, SIZE - 2, dtype=np.int32),
        np.array([INT32.min, INT32.max], dtype=np.int32)),
    "float64": lambda rng: rng.integers(-600, 601, SIZE) / 4.0,
}

#: subject -> constructor over (values, options)
SUBJECTS = {
    "cracked": lambda values, **options: CrackedColumn(values, **options),
    "updatable": lambda values, **options: CrackedColumn(
        values, supports_updates=True, **options),
    "1 partition": lambda values, **options: PartitionedCrackedColumn(
        values, partitions=1, **options),
    "3 partitions": lambda values, **options: PartitionedCrackedColumn(
        values, partitions=3, **options),
    "8 partitions": lambda values, **options: PartitionedCrackedColumn(
        values, partitions=8, **options),
}

STATES = ("cold", "refined", "converged", "ripple pending", "gradual pending",
          "trickle pending", "eager pending")


def takes(subject, state):
    """Whether ``subject`` can be brought into ``state``: only a whole column
    queues DML, and "eager pending" is the updatable column already."""
    if state.endswith("pending"):
        return subject == "cracked" or (
            subject == "updatable" and state != "eager pending")
    return True


def column_values(kind, seed):
    return np.asarray(KINDS[kind](np.random.default_rng(seed)))


def keys_near(values):
    """Typed bounds near the keys of ``values`` (Python scalars)."""
    keys = sorted(set(values.tolist()))
    if values.dtype.kind == "f":
        return keys + [key + 0.125 for key in keys]
    limits = np.iinfo(values.dtype)
    near = {key + offset for key in keys for offset in (-1, 0, 1)}
    return sorted(key for key in near if limits.min <= key <= limits.max)


def build(subject, kind, state, seed, **options):
    """A column of ``subject`` over ``kind`` keys, brought into ``state`` by
    a fixed stream of operations: two calls build two identical objects."""
    values = column_values(kind, seed)
    if state == "eager pending":
        options.update(supports_updates=True)
    if state == "gradual pending":
        options.update(policy="gradual", merge_batch=3)
    if state == "trickle pending":  # one merge per search
        options.update(policy="gradual", merge_batch=1)
    column = SUBJECTS[subject](values, **options)
    rng = np.random.default_rng(seed + 1)
    # keys stay Python scalars of the column's type (a numpy array of
    # uint64 keys past 2**63 mixed with smaller ones would be float64)
    keys = sorted(set(values.tolist()))
    if state == "converged":
        for low, high in zip(keys, keys[1:]):
            column.search(low, high)
        column.search(keys[-1], None)
        assert column.converged  # latches every cracker column
        return column
    if state not in ("cold", "eager pending"):
        for _ in range(12):
            low, high = sorted(keys[i] for i in rng.integers(0, len(keys), 2))
            column.search(low, high)
    if state.endswith("pending"):
        for index in rng.integers(0, len(keys), 25).tolist():
            column.insert(keys[index])
        for rowid in rng.choice(SIZE, 20, replace=False).tolist():
            column.delete(rowid)
    return column


@st.composite
def batches(draw, keys):
    """Ranges of every shape a batch must get right, some re-using the
    bounds of earlier ones (duplicate, nested, touching)."""
    bound = st.sampled_from(keys)
    ranges = []
    for _ in range(draw(st.integers(1, 12))):
        shape = draw(st.sampled_from(
            ["fresh", "fresh", "duplicate", "nested", "touching", "empty",
             "half-open"] if ranges else ["fresh", "empty", "half-open"]))
        if shape == "fresh":
            low, high = sorted([draw(bound), draw(bound)])
        elif shape == "empty":
            low = high = draw(bound)
        elif shape == "half-open":
            key = draw(bound)
            low, high = draw(st.sampled_from([(key, None), (None, key), (None, None)]))
        else:
            low, high = draw(st.sampled_from(ranges))
            if shape == "nested" and low is not None and high is not None:
                inner = [key for key in keys if low <= key <= high]
                low, high = sorted([draw(st.sampled_from(inner)),
                                    draw(st.sampled_from(inner))])
            elif shape == "touching":
                edge = high if high is not None else low
                if edge is not None:
                    low, high = edge, max(edge, draw(bound))
        ranges.append((low, high))
    return ranges


def cracker_state(column):
    """Everything a search may change, as comparable plain data."""
    if isinstance(column, PartitionedCrackedColumn):
        return ([cracker_state(p.cracked) for p in column.partitions],
                column.queries_processed)
    materialised = column.materialised
    return (
        column.values.tolist() if materialised else None,
        column.rowids.tolist() if materialised else None,
        column.index.boundary_values, column.index.boundary_positions,
        column.queries_processed, column.merges_performed,
        column.pending_inserts, column.pending_deletes,
    )


def assert_batch_is_sequential(make, ranges, label):
    batched, sequential = make(), make()
    batch_counters = [CostCounters() for _ in ranges]
    answers = batched.search_many(ranges, batch_counters)
    for position, ((low, high), counters) in enumerate(zip(ranges, batch_counters)):
        expected_counters = CostCounters()
        expected = sequential.search(low, high, expected_counters)
        where = f"{label}, query {position} [{low}, {high}) of {ranges}"
        assert answers[position].dtype == expected.dtype, where
        assert np.array_equal(answers[position], expected), where
        assert counters == expected_counters, where
    assert cracker_state(batched) == cracker_state(sequential), label
    probe, again = CostCounters(), CostCounters()
    low, high = ranges[0]
    assert np.array_equal(batched.search(low, high, probe),
                          sequential.search(low, high, again)), label
    assert probe == again, label
    batched.check_invariants()
    for column in (batched, sequential):
        if isinstance(column, PartitionedCrackedColumn):
            column.close()


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("state,subject", [
    (state, subject) for state in STATES for subject in sorted(SUBJECTS)
    if takes(subject, state)
])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_a_batch_is_its_searches_in_order(state, subject, kind, data, seed):
    ranges = data.draw(batches(keys_near(column_values(kind, seed))))
    assert_batch_is_sequential(
        lambda: build(subject, kind, state, seed), ranges,
        f"{subject}, {kind}, {state}")


@pytest.mark.parametrize("state", ["cold", "refined", "converged"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_a_pooled_batch_is_its_searches_in_order(state, data, seed, pooled_fan_out):
    kind = "int64 around 2**60"
    ranges = data.draw(batches(keys_near(column_values(kind, seed))))
    assert_batch_is_sequential(
        lambda: build("8 partitions", kind, state, seed, parallel=True,
                      max_workers=2),
        ranges, f"parallel, {state}")


def test_a_batch_that_sorts_a_partition_is_answered_in_turn():
    """A once-flaky draw, pinned: partition 1 of this column is sorted by
    queries 0 and 3, so the next ``search`` latches and binary-searches
    query 4.  One pass would crack it instead and charge it no random
    access (0 instead of 2) for an equal answer, so the partition answers
    the batch range by range."""
    key = 2**63 - 400
    ranges = [(key, key + 577), (key, key), (key, key), (key, key + 38),
              (key, key + 577)]
    assert_batch_is_sequential(
        lambda: build("8 partitions", "uint64 past 2**63", "refined", 156),
        ranges, "8 partitions, uint64 past 2**63, refined")


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("queue", ["inserts", "deletes"])
@pytest.mark.parametrize("policy, latch", [("ripple", 1), ("gradual", 2)])
def test_a_column_converging_mid_batch_latches_at_the_same_range(
        policy, latch, queue, kind):
    """A sorted updatable column holds two pending updates that keep it
    sorted once merged: two inserts of its largest key, or deletes of its
    two largest rows.  The first ranges of the batch merge them — both at
    once under the ripple policy, one per search under the gradual one at a
    budget of one — and the next ``search`` asks ``converged``, latches and
    binary-searches range ``latch``.  The batch has to ask at the same
    range, or it cracks that range instead and charges it otherwise for an
    equal answer."""
    values = np.sort(column_values(kind, 7))
    keys = sorted(set(values.tolist()))
    top = keys[-1] if queue == "inserts" else values.tolist()[-2]

    def make():
        column = CrackedColumn(values, supports_updates=True, policy=policy,
                               merge_batch=1)
        for step in (1, 2):
            if queue == "inserts":
                column.insert(top)
            else:
                column.delete(SIZE - step)  # the last rows hold the largest keys
        return column

    ranges = [(top, None), (top, None), (keys[10], keys[40]), (keys[60], keys[61])]
    column = make()
    for position, (low, high) in enumerate(ranges):
        assert column.converged == (position >= latch), position
        column.search(low, high)
    assert_batch_is_sequential(make, ranges, f"updatable, {kind}, {policy}, {queue}")
