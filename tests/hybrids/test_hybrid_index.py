"""Unit tests for the hybrid adaptive index."""

import itertools

import numpy as np
import pytest

from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters

#: every (initial, final) pair the index takes; the registry names three
MODE_PAIRS = list(itertools.product(HybridIndex.INITIAL_MODES, HybridIndex.FINAL_MODES))


@pytest.mark.parametrize("initial_mode,final_mode", MODE_PAIRS)
class TestCorrectness:
    def test_results_match_reference(self, medium_values, reference, initial_mode, final_mode):
        index = HybridIndex(
            medium_values, initial_mode=initial_mode, final_mode=final_mode
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
            small_values, initial_mode=initial_mode, final_mode=final_mode
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

    @pytest.mark.parametrize("rows,partitions", [(1, 1), (100, 10), (1000, 33)])
    def test_crack_partitions_hold_the_square_root_of_the_column(
        self, rows, partitions
    ):
        index = HybridIndex(np.arange(rows, dtype=np.int64), initial_mode="crack")
        assert sorted(index.search(10, 20).tolist()) == list(range(10, min(rows, 20)))
        assert len(index.partitions) == partitions

    def test_empty_column(self):
        index = HybridIndex(np.empty(0, dtype=np.int64))
        assert len(index.search(0, 10)) == 0

    def test_only_queried_ranges_move_to_final(self, medium_values):
        index = HybridIndex(medium_values)
        index.search(10_000, 20_000)
        assert 0 < len(index.final) < len(medium_values) / 2
        assert not index.fully_merged

    def test_repeat_query_does_not_touch_initial_partitions(self, medium_values):
        index = HybridIndex(medium_values)
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
                medium_values, initial_mode=initial_mode, final_mode="sort"
            ).search(0, 1000, counters)
            return counters.comparisons

        assert first_query_comparisons("crack") < first_query_comparisons("sort")

    def test_crack_sort_converges_faster_than_crack_crack(self, medium_values):
        """Sorted final pieces answer later overlapping queries with binary search."""
        rng = np.random.default_rng(9)
        queries = [(int(low), int(low) + 3000) for low in rng.integers(0, 95_000, size=200)]

        def tail_cost(final_mode):
            index = HybridIndex(
                medium_values, initial_mode="crack", final_mode=final_mode
            )
            costs = []
            for low, high in queries:
                counters = CostCounters()
                index.search(low, high, counters)
                costs.append(counters.comparisons + counters.tuples_moved)
            return np.mean(costs[-50:])

        assert tail_cost("sort") <= tail_cost("crack") * 1.5

    def test_structure_grows_monotonically(self, medium_values):
        index = HybridIndex(medium_values)
        merged_sizes = []
        rng = np.random.default_rng(2)
        for _ in range(20):
            low = int(rng.integers(0, 90_000))
            index.search(low, low + 5000)
            merged_sizes.append(len(index.final))
            index.check_invariants()
        assert all(b >= a for a, b in zip(merged_sizes, merged_sizes[1:]))


@pytest.mark.parametrize("rows", [600, 0], ids=["600-rows", "empty"])
@pytest.mark.parametrize(
    "name", ["hybrid-crack-crack", "hybrid-crack-sort", "hybrid-sort-sort"]
)
def test_fully_merged_turns_true_on_the_query_that_extracts_the_last_tuple(
    name, rows
):
    index = create_strategy(
        name, np.random.default_rng(3).permutation(rows).astype(np.int64)
    )
    # twelve tiles cover every key but the last in a shuffled order, the
    # thirteenth extracts that one tuple alone, then repeats
    tiles = [(int(low), min(int(low) + 50, 599))
             for low in np.random.default_rng(4).permutation(range(0, 600, 50))]
    tiles.append((599, 600))
    assert not index.fully_merged
    flags = []
    for low, high in tiles + tiles[:3] + [(None, None)]:
        index.search(low, high)
        # the oracle: no initial partition holds a tuple any more
        remaining = sum(len(partition) for partition in index.partitions)
        assert index.fully_merged == (remaining == 0)
        flags.append(index.fully_merged)
    first = flags.index(True)
    assert all(flags[first:])
    assert first == (len(tiles) - 1 if rows else 0)
