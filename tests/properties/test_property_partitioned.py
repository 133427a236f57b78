"""Property-style tests: partitioned cracking is indistinguishable from
whole-column cracking on randomized (seeded) workloads.

The acceptance property of the partitioned subsystem is *answer identity*:
for any column, any partition count and any query sequence, the set of
positions returned by :class:`PartitionedCrackedColumn` equals what a plain
:class:`CrackedColumn` returns — with and without the thread-pool fan-out,
which also charges the same logical costs.
"""

from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn
from repro.cost.counters import CostCounters

PARTITION_COUNTS = [1, 3, 8]

#: execution configurations a partitioned column must be indistinguishable
#: across: sequential and thread fan-out (really on the pool: the tests that
#: loop over these take the ``pooled_fan_out`` fixture)
EXECUTIONS = [
    ("seq", {"parallel": False}),
    ("thread", {"parallel": True}),
]


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
    with closing(PartitionedCrackedColumn(
        values, partitions=partitions, parallel=parallel
    )) as partitioned:
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
        with closing(PartitionedCrackedColumn(
            values, partitions=partitions, **execution
        )) as partitioned:
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
