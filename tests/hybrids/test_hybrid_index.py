"""Unit tests for the hybrid adaptive index."""

import itertools

import numpy as np
import pytest

from repro.core.hybrids.hybrid_index import HybridIndex
from repro.cost.counters import CostCounters

#: every (initial, final) pair the index takes; the registry names three
MODE_PAIRS = list(itertools.product(HybridIndex.INITIAL_MODES, HybridIndex.FINAL_MODES))


@pytest.mark.parametrize("initial_mode,final_mode", MODE_PAIRS)
class TestCorrectness:
    def test_results_match_reference(self, medium_values, reference, initial_mode, final_mode):
        index = HybridIndex(
            medium_values, initial_mode=initial_mode, final_mode=final_mode,
            partition_size=2000,
        )
        rng = np.random.default_rng(1)
        for _ in range(30):
            low = int(rng.integers(0, 90_000))
            high = low + int(rng.integers(1, 10_000))
            assert set(index.search(low, high).tolist()) == reference(
                medium_values, low, high
            )
            index.check_invariants()

    def test_unbounded_queries(self, small_values, reference, initial_mode, final_mode):
        index = HybridIndex(
            small_values, initial_mode=initial_mode, final_mode=final_mode,
            partition_size=64,
        )
        assert set(index.search(None, 50).tolist()) == reference(small_values, None, 50)
        assert set(index.search(20, None).tolist()) == reference(small_values, 20, None)
        assert set(index.search(None, None).tolist()) == set(range(len(small_values)))
        assert index.fully_merged


class TestBehaviour:
    def test_invalid_modes_rejected(self, small_values):
        with pytest.raises(ValueError):
            HybridIndex(small_values, initial_mode="zip")
        with pytest.raises(ValueError):
            HybridIndex(small_values, final_mode="zip")

    @pytest.mark.parametrize("initial_mode", HybridIndex.INITIAL_MODES)
    @pytest.mark.parametrize("partition_size", [0, -5])
    def test_partition_size_below_one_rejected(
        self, small_values, initial_mode, partition_size
    ):
        # a negative step makes no crack partitions at all: the empty
        # partition list would read as fully merged, every answer empty
        with pytest.raises(ValueError, match="partition_size must be >= 1"):
            HybridIndex(small_values, initial_mode=initial_mode,
                        partition_size=partition_size)

    @pytest.mark.parametrize("partition_size,partitions", [
        (None, 10),  # the default: the square root of the column size
        (1, 100),
        (1000, 1),
    ])
    def test_partition_size_sets_the_crack_partitions(self, partition_size, partitions):
        index = HybridIndex(np.arange(100, dtype=np.int64), initial_mode="crack",
                            partition_size=partition_size)
        assert sorted(index.search(10, 20).tolist()) == list(range(10, 20))
        assert len(index.partitions) == partitions

    def test_empty_column(self):
        index = HybridIndex(np.empty(0, dtype=np.int64))
        assert len(index.search(0, 10)) == 0

    def test_only_queried_ranges_move_to_final(self, medium_values):
        index = HybridIndex(medium_values, partition_size=2000)
        index.search(10_000, 20_000)
        assert 0 < len(index.final) < len(medium_values) / 2
        assert not index.fully_merged

    def test_repeat_query_does_not_touch_initial_partitions(self, medium_values):
        index = HybridIndex(medium_values, partition_size=2000)
        index.search(10_000, 20_000)
        sizes_before = [len(p) for p in index.partitions]
        counters = CostCounters()
        index.search(12_000, 18_000, counters)
        assert [len(p) for p in index.partitions] == sizes_before
        assert counters.tuples_moved == 0 or index.final.mode == "crack"

    def test_initialization_cost_ordering(self, medium_values):
        """First-query cost: crack-initial < sort-initial."""
        def first_query_comparisons(initial_mode):
            counters = CostCounters()
            HybridIndex(
                medium_values, initial_mode=initial_mode, final_mode="sort",
                partition_size=2000,
            ).search(0, 1000, counters)
            return counters.comparisons

        assert first_query_comparisons("crack") < first_query_comparisons("sort")

    def test_crack_sort_converges_faster_than_crack_crack(self, medium_values):
        """Sorted final pieces answer later overlapping queries with binary search."""
        rng = np.random.default_rng(9)
        queries = [(int(low), int(low) + 3000) for low in rng.integers(0, 95_000, size=200)]

        def tail_cost(final_mode):
            index = HybridIndex(
                medium_values, initial_mode="crack", final_mode=final_mode,
                partition_size=2000,
            )
            costs = []
            for low, high in queries:
                counters = CostCounters()
                index.search(low, high, counters)
                costs.append(counters.comparisons + counters.tuples_moved)
            return np.mean(costs[-50:])

        assert tail_cost("sort") <= tail_cost("crack") * 1.5

    def test_structure_grows_monotonically(self, medium_values):
        index = HybridIndex(medium_values, partition_size=2000)
        merged_sizes = []
        rng = np.random.default_rng(2)
        for _ in range(20):
            low = int(rng.integers(0, 90_000))
            index.search(low, low + 5000)
            merged_sizes.append(len(index.final))
            index.check_invariants()
        assert all(b >= a for a, b in zip(merged_sizes, merged_sizes[1:]))
