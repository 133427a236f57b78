"""Unit tests for the full (offline) index."""

import numpy as np

from repro.cost.counters import CostCounters
from repro.indexes.full_index import FullIndex


class TestBuild:
    def test_build_records_cost(self, small_values):
        counters = CostCounters()
        index = FullIndex(small_values, counters=counters)
        assert counters.tuples_moved == len(small_values)
        assert counters.comparisons > len(small_values)
        assert index.build_counters.tuples_moved == len(small_values)

    def test_sorted_values_are_sorted(self, small_values):
        index = FullIndex(small_values)
        assert np.all(np.diff(index.sorted_values) >= 0)

    def test_consistency_check(self, small_values):
        index = FullIndex(small_values)
        assert index.is_consistent_with(small_values)
        assert not index.is_consistent_with(small_values[:-1])
        shuffled = small_values.copy()
        shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
        if shuffled[0] != shuffled[1]:
            assert not index.is_consistent_with(shuffled)

    def test_accepts_column_objects(self, small_column):
        index = FullIndex(small_column)
        assert index.name == "key"
        assert len(index) == len(small_column)

    def test_nbytes_positive(self, small_values):
        assert FullIndex(small_values).nbytes > 0


class TestSearch:
    def test_search_matches_reference(self, medium_values, reference):
        index = FullIndex(medium_values)
        for low, high in [(0, 1000), (50_000, 60_000), (99_000, 100_000), (5, 5)]:
            assert set(index.search(low, high).tolist()) == reference(
                medium_values, low, high
            )

    def test_search_unbounded(self, small_values, reference):
        index = FullIndex(small_values)
        assert set(index.search(None, 50).tolist()) == reference(small_values, None, 50)
        assert set(index.search(50, None).tolist()) == reference(small_values, 50, None)
        assert set(index.search(None, None).tolist()) == set(range(len(small_values)))

    def test_lookup_answers_like_search_without_counting(self, small_values):
        """The paths that build a full index (sort-first, the tuners) count
        their own queries and look up through the uncounted entry."""
        index = FullIndex(small_values)
        looked_up = index.lookup(20, 40)
        assert index.queries_processed == 0
        assert np.array_equal(index.search(20, 40), looked_up)
        assert index.queries_processed == 1

    def test_search_cost_much_cheaper_than_scan(self, medium_values):
        index = FullIndex(medium_values)
        counters = CostCounters()
        index.search(0, 100, counters)
        # a narrow indexed lookup touches far fewer tuples than the column size
        assert counters.tuples_scanned < len(medium_values) // 10
        assert counters.comparisons < 100

    def test_empty_column(self):
        index = FullIndex(np.empty(0, dtype=np.int64))
        assert len(index.search(0, 10)) == 0
