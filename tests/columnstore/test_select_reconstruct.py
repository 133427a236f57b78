"""Unit tests for select operators and tuple reconstruction."""

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.columnstore.reconstruct import late_reconstruct
from repro.columnstore.select import RangePredicate, refine_select, scan_select
from repro.cost.counters import CostCounters


class TestRangePredicate:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="empty predicate"):
            RangePredicate(low=10, high=5)

    def test_matches_half_open(self):
        predicate = RangePredicate(2, 4)
        assert np.array_equal(
            predicate.matches(np.array([1, 2, 3, 4])), [False, True, True, False]
        )


class TestSelects:
    def test_scan_select_matches_reference(self, small_values, reference):
        column = Column(small_values)
        positions = scan_select(column, RangePredicate(20, 60))
        assert set(positions.tolist()) == reference(small_values, 20, 60)

    def test_scan_select_counts_cost(self, small_values):
        counters = CostCounters()
        scan_select(Column(small_values), RangePredicate(0, 10), counters)
        assert counters.tuples_scanned == len(small_values)

    def test_refine_select(self, small_values, reference):
        column = Column(small_values)
        candidates = scan_select(column, RangePredicate(20, 80))
        refined = refine_select(column, candidates, RangePredicate(30, 40))
        assert set(refined.tolist()) == reference(small_values, 30, 40)

    def test_refine_select_random_access_cost(self, small_values):
        column = Column(small_values)
        counters = CostCounters()
        refine_select(column, np.array([0, 1, 2]), RangePredicate(0, 50), counters)
        assert counters.random_accesses == 3


class TestReconstruction:
    def test_late_reconstruct(self, sample_table):
        positions = np.array([0, 5, 10])
        result = late_reconstruct(sample_table, positions, ["a", "c"])
        assert np.array_equal(result["a"], sample_table["a"].values[positions])
        assert np.array_equal(result["c"], sample_table["c"].values[positions])

    def test_late_reconstruct_counts_random_access(self, sample_table):
        counters = CostCounters()
        late_reconstruct(sample_table, np.arange(10), ["a", "b"], counters)
        assert counters.random_accesses == 20
