"""Property-style tests: partitioned cracking is indistinguishable from
whole-column cracking on randomized (seeded) workloads.

The acceptance property of the partitioned subsystem is *answer identity*:
for any column, any partition count and any query or update sequence, the
set of positions returned by :class:`PartitionedCrackedColumn` equals what a
plain :class:`CrackedColumn` returns — with and without the thread-pool
fan-out, which also charges the same logical costs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.partitioned import (
    PartitionedCrackedColumn,
    PartitionedUpdatableCrackedColumn,
)
from repro.cost.counters import CostCounters

PARTITION_COUNTS = [1, 3, 8]

#: execution configurations a partitioned column must be indistinguishable
#: across: sequential and thread fan-out (really on the pool: the tests that
#: loop over these take the ``pooled_fan_out`` fixture)
EXECUTIONS = [
    ("seq", {"parallel": False}),
    ("thread", {"parallel": True}),
]

#: action mixes for :func:`drive_mixed_stream` (0-1 insert, 2 delete, 3 update,
#: 4-5 select): the balanced default, and one where deletes outnumber inserts
#: so partitions drain to zero visible rows while keeping their bounds
BALANCED = (0, 1, 2, 3, 4, 5)
DELETE_HEAVY = (0, 2, 2, 2, 3, 5)


def random_workload(rng, domain, count):
    """Seeded mix of bounded, half-open and degenerate range queries."""
    queries = []
    for _ in range(count):
        kind = rng.integers(0, 10)
        low = float(rng.integers(-5, domain + 5))
        width = float(rng.integers(0, max(1, domain // 4)))
        if kind == 0:
            queries.append((None, low))
        elif kind == 1:
            queries.append((low, None))
        elif kind == 2:
            queries.append((low, low))  # empty range
        else:
            queries.append((low, low + width))
    return queries


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_partitioned_matches_cracked_column(partitions, parallel, seed,
                                            pooled_fan_out):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 3000))
    domain = int(rng.integers(1, 2000))
    values = rng.integers(0, domain, size=size).astype(np.int64)
    whole = CrackedColumn(values)
    with PartitionedCrackedColumn(
        values, partitions=partitions, parallel=parallel
    ) as partitioned:
        for low, high in random_workload(rng, domain, count=40):
            expected = whole.search(low, high)
            actual = partitioned.search(low, high)
            assert np.array_equal(np.sort(actual), np.sort(expected)), (
                f"answers diverge for [{low}, {high}) with "
                f"partitions={partitions}, parallel={parallel}, seed={seed}"
            )
        whole.check_invariants()
        partitioned.check_invariants()
        # the parallel cases ran on the pool (one partition has no fan-out)
        assert (partitioned._pool is not None) == (parallel and partitions > 1)


values_arrays = st.lists(
    st.integers(min_value=-500, max_value=500), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

query_bounds = st.tuples(
    st.integers(min_value=-600, max_value=600),
    st.integers(min_value=-600, max_value=600),
).map(lambda pair: (min(pair), max(pair)))


@given(
    values=values_arrays,
    queries=st.lists(query_bounds, min_size=1, max_size=10),
    partitions=st.sampled_from(PARTITION_COUNTS),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_partitioned_equivalence(values, queries, partitions):
    whole = CrackedColumn(values)
    partitioned = PartitionedCrackedColumn(values, partitions=partitions)
    for low, high in queries:
        expected = whole.search(low, high)
        actual = partitioned.search(low, high)
        assert np.array_equal(np.sort(actual), np.sort(expected))
    partitioned.check_invariants()


def drive_mixed_stream(reference, partitioned, base, *, skewed, steps, seed,
                       mix=BALANCED):
    """Interleave inserts/deletes/updates/selects, checking every answer.

    Returns the partitioned column's accumulated cost counters so callers
    can pin them bit-identical across execution modes.
    """
    model = {int(i): int(v) for i, v in enumerate(base)}
    next_id = len(base)
    rng = np.random.default_rng(seed)
    counters = CostCounters()

    def draw_value():
        if skewed:
            # hammer the bottom tenth of the domain (one hot partition)
            return int(rng.integers(0, 100))
        return int(rng.integers(0, 1000))

    for _ in range(steps):
        action = mix[int(rng.integers(0, 6))]
        if action <= 1:
            value = draw_value()
            got_ref = reference.insert(value)
            got_part = partitioned.insert(value, counters)
            assert got_ref == got_part == next_id
            model[next_id] = value
            next_id += 1
        elif action == 2 and model:
            victim = int(rng.choice(list(model)))
            reference.delete(victim)
            partitioned.delete(victim, counters)
            del model[victim]
        elif action == 3 and model:
            victim = int(rng.choice(list(model)))
            value = draw_value()
            got_ref = reference.update(victim, value)
            got_part = partitioned.update(victim, value, counters)
            assert got_ref == got_part == next_id
            del model[victim]
            model[next_id] = value
            next_id += 1
        else:
            low = int(rng.integers(0, 950))
            high = low + int(rng.integers(1, 120))
            expected = {r for r, v in model.items() if low <= v < high}
            assert set(reference.search(low, high).tolist()) == expected
            assert set(partitioned.search(low, high, counters).tolist()) == expected
    reference.check_invariants()
    partitioned.check_invariants()
    assert sorted(partitioned.visible_values().tolist()) == sorted(model.values())
    assert len(partitioned) == len(model)
    return counters


class TestUpdatableStreamOracle:
    """The updatable partitioned column vs the unpartitioned oracle."""

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_mixed_stream_bit_identical(self, partitions, policy, skewed,
                                        pooled_fan_out):
        rng = np.random.default_rng(17)
        base = rng.integers(0, 1000, size=600).astype(np.int64)
        outcomes = {}
        for label, execution in EXECUTIONS:
            reference = UpdatableCrackedColumn(base, policy=policy, merge_batch=4)
            with PartitionedUpdatableCrackedColumn(
                base, partitions=partitions, policy=policy, merge_batch=4,
                **execution,
            ) as partitioned:
                counters = drive_mixed_stream(
                    reference, partitioned, base,
                    skewed=skewed, steps=250, seed=23 + partitions,
                )
                assert partitioned.partition_count == partitions
                outcomes[label] = counters
        # logical cost accounting is execution-mode independent: the fan-out
        # reports the same totals
        assert outcomes["thread"] == outcomes["seq"]

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_delete_heavy_stream_keeps_invariants(self, partitions, seed):
        # a partition drained to 0 visible rows keeps its bounds and must
        # still receive the inserts that fit them (routing by truthiness
        # sent them to a neighbour, whose bounds then widened over its range)
        rng = np.random.default_rng(40 + seed)
        base = rng.integers(0, 100, size=120).astype(np.int64)
        reference = UpdatableCrackedColumn(base, merge_batch=3)
        partitioned = PartitionedUpdatableCrackedColumn(
            base, partitions=partitions, merge_batch=3,
        )
        drive_mixed_stream(
            reference, partitioned, base, skewed=True, steps=400, seed=seed,
            mix=DELETE_HEAVY,
        )


@pytest.mark.parametrize("partitions", PARTITION_COUNTS)
def test_zoom_in_stream_matches_cracked_column(partitions, pooled_fan_out):
    rng = np.random.default_rng(13)
    # clustered values (position-correlated) make the zoom-in stream
    # concentrate on few partitions, so pruning skips the others
    values = (np.arange(4000) * 5
              + rng.integers(0, 500, size=4000)).astype(np.int64)
    outcomes = {}
    for label, execution in EXECUTIONS:
        whole = CrackedColumn(values)
        with PartitionedCrackedColumn(
            values, partitions=partitions, **execution
        ) as partitioned:
            counters = CostCounters()
            low, high = 0.0, 5000.0
            for _ in range(80):
                width = max((high - low) * 0.95, 40.0)
                query_low = low + (high - low - width) / 2
                expected = whole.search(query_low, query_low + width)
                actual = partitioned.search(query_low, query_low + width, counters)
                assert set(actual.tolist()) == set(expected.tolist())
                low, high = query_low, query_low + width
            partitioned.check_invariants()
            outcomes[label] = counters
    assert outcomes["thread"] == outcomes["seq"]


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(-500, 500)),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("select"), query_bounds),
    ),
    min_size=1,
    max_size=30,
)


@given(
    values=values_arrays,
    stream=operations,
    partitions=st.sampled_from(PARTITION_COUNTS),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_updatable_equivalence(values, stream, partitions):
    """Arbitrary update streams: partitioned column == unpartitioned oracle."""
    reference = UpdatableCrackedColumn(values)
    partitioned = PartitionedUpdatableCrackedColumn(values, partitions=partitions)
    live = set(range(len(values)))
    for kind, payload in stream:
        if kind == "insert":
            live.add(reference.insert(payload))
            partitioned.insert(payload)
        elif kind == "delete":
            victim = payload % (len(values) + len(live) + 1)
            if victim in live:
                reference.delete(victim)
                partitioned.delete(victim)
                live.discard(victim)
        else:
            low, high = payload
            expected = reference.search(low, high)
            actual = partitioned.search(low, high)
            assert np.array_equal(np.sort(actual), np.sort(expected))
    assert np.array_equal(
        np.sort(partitioned.visible_values()),
        np.sort(reference.visible_values()),
    )
    partitioned.check_invariants()
