"""Unit tests for the bulk physical kernels."""

import numpy as np
import pytest

from repro.columnstore.bulk import (
    binary_search_count,
    binary_search_counts,
    filter_range,
    gather,
    lower_bound,
    merge_sorted_with_positions,
    partition_three_way,
    partition_two_way,
    range_mask,
    scatter,
    sort_comparisons,
    stable_sort_rows,
)
from repro.cost.counters import CostCounters


class TestRangeFilters:
    def test_range_mask_half_open(self):
        values = np.array([1, 2, 3, 4, 5])
        mask = range_mask(values, 2, 4)
        assert np.array_equal(mask, [False, True, True, False, False])

    def test_range_mask_unbounded_sides(self):
        values = np.array([1, 2, 3])
        assert range_mask(values, None, None).all()
        assert np.array_equal(range_mask(values, 2, None), [False, True, True])
        assert np.array_equal(range_mask(values, None, 2), [True, False, False])

    def test_filter_range_returns_positions(self):
        values = np.array([5, 1, 7, 3])
        assert np.array_equal(filter_range(values, 3, 7), [0, 3])

    def test_filter_range_records_counters(self):
        counters = CostCounters()
        filter_range(np.arange(100), 10, 20, counters)
        assert counters.tuples_scanned == 100
        assert counters.comparisons == 200


class TestGatherScatter:
    def test_gather(self):
        values = np.array([10, 20, 30])
        counters = CostCounters()
        assert np.array_equal(gather(values, [2, 0], counters), [30, 10])
        assert counters.random_accesses == 2

    def test_scatter(self):
        target = np.zeros(4)
        counters = CostCounters()
        scatter(target, np.array([1, 3]), np.array([7.0, 9.0]), counters)
        assert np.array_equal(target, [0.0, 7.0, 0.0, 9.0])
        assert counters.tuples_moved == 2


class TestPartitioning:
    def test_partition_two_way_basic(self):
        values = np.array([5, 1, 8, 3, 9, 2])
        payload = np.arange(6)
        split = partition_two_way(values, 0, 6, 5, payload=payload)
        assert split == 3
        assert set(values[:split]) == {1, 3, 2}
        assert set(values[split:]) == {5, 8, 9}
        # payload permuted identically
        original = np.array([5, 1, 8, 3, 9, 2])
        assert np.array_equal(original[payload], values)

    def test_partition_two_way_subrange_only(self):
        values = np.array([9, 9, 5, 1, 8, 0, 0])
        partition_two_way(values, 2, 5, 6)
        assert np.array_equal(values[:2], [9, 9])
        assert np.array_equal(values[5:], [0, 0])
        assert set(values[2:5]) == {5, 1, 8}

    def test_partition_two_way_empty_segment(self):
        values = np.array([1, 2, 3])
        assert partition_two_way(values, 1, 1, 2) == 1

    def test_partition_two_way_all_below_or_above(self):
        values = np.array([1, 2, 3])
        assert partition_two_way(values, 0, 3, 100) == 3
        values = np.array([1, 2, 3])
        assert partition_two_way(values, 0, 3, 0) == 0

    def test_partition_two_way_multiple_payloads(self):
        values = np.array([4, 1, 3, 2])
        p1 = np.arange(4)
        p2 = np.arange(4) * 10
        partition_two_way(values, 0, 4, 3, payload=[p1, p2])
        assert np.array_equal(p1 * 10, p2)

    def test_partition_three_way(self):
        values = np.array([5, 1, 8, 3, 9, 2, 7])
        low_split, high_split = partition_three_way(values, 0, 7, 3, 8)
        assert set(values[:low_split]) == {1, 2}
        assert set(values[low_split:high_split]) == {5, 3, 7}
        assert set(values[high_split:]) == {8, 9}

    def test_partition_three_way_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            partition_three_way(np.array([1.0]), 0, 1, 5, 2)

    def test_partition_three_way_equal_bounds(self):
        values = np.array([5, 1, 8])
        low_split, high_split = partition_three_way(values, 0, 3, 5, 5)
        assert low_split == high_split  # empty middle

    def test_partition_counts_work(self):
        counters = CostCounters()
        values = np.arange(50)[::-1].copy()
        partition_two_way(values, 0, 50, 25, counters)
        assert counters.tuples_scanned == 50
        assert counters.tuples_moved == 50


class TestSort:
    def test_stable_sort_rows_sorts_each_row(self):
        values = np.array([9, 3, 7, 1, 5])
        sorted_values, positions = stable_sort_rows(values, 2)
        # rows [9, 3], [7, 1] and the ragged tail [5]
        assert np.array_equal(sorted_values, [3, 9, 1, 7, 5])
        assert np.array_equal(positions, [1, 0, 1, 0, 0])
        assert np.array_equal(values, [9, 3, 7, 1, 5])  # out of place

    def test_stable_sort_rows_keeps_ties_in_order(self):
        sorted_values, positions = stable_sort_rows(np.array([2, 1, 2, 1]), 4)
        assert np.array_equal(sorted_values, [1, 1, 2, 2])
        assert np.array_equal(positions, [1, 3, 0, 2])

    @pytest.mark.parametrize("values", [
        np.array([0.5, -1.5, 0.5, 2.0, -3.0]),
        # a span past 63 bits cannot be packed beside the positions
        np.array([2**62, -2**62, 0, 2**62, -1], dtype=np.int64),
    ], ids=["float", "wide-int"])
    def test_stable_sort_rows_unpackable_keys(self, values):
        sorted_values, positions = stable_sort_rows(values, 3)
        for begin in (0, 3):
            row = values[begin:begin + 3]
            order = np.argsort(row, kind="stable")
            assert np.array_equal(positions[begin:begin + 3], order)
            assert np.array_equal(sorted_values[begin:begin + 3], row[order])

    def test_stable_sort_single_element_noop(self):
        values = np.array([2, 1])
        sorted_values, positions = stable_sort_rows(values, 1)
        assert np.array_equal(sorted_values, [2, 1])
        assert np.array_equal(positions, [0, 0])

    def test_stable_sort_rows_counts_work(self):
        counters = CostCounters()
        stable_sort_rows(np.arange(10)[::-1].copy(), 4, counters)
        assert counters.comparisons == 2 * sort_comparisons(4) + sort_comparisons(2)
        assert counters.tuples_moved == 10


class TestMergeAndSearchHelpers:
    def test_merge_sorted_with_positions(self):
        left_v = np.array([1, 4, 9])
        left_p = np.array([0, 1, 2])
        right_v = np.array([2, 5])
        right_p = np.array([3, 4])
        merged_v, merged_p = merge_sorted_with_positions(left_v, left_p, right_v, right_p)
        assert np.array_equal(merged_v, [1, 2, 4, 5, 9])
        assert np.array_equal(merged_p, [0, 3, 1, 4, 2])

    def test_binary_search_count(self):
        assert binary_search_count(0) == 0
        assert binary_search_count(1) == 1
        assert binary_search_count(1024) == 11

    def test_binary_search_counts_match_the_scalar_count(self):
        sizes = np.array([0, 1, 2, 3, 7, 8, 1023, 1024])
        assert binary_search_counts(sizes).tolist() == [
            binary_search_count(int(n)) for n in sizes
        ]

    def test_lower_bound_searches_uint64_keys_exactly(self):
        # past 2**53 a Python int searched as float64 would round
        top = 2**64 - 1
        values = np.array([2**53, 2**53 + 1, top - 1, top], dtype=np.uint64)
        assert lower_bound(values, 2**53 + 1) == 1
        assert lower_bound(values, top) == 3
        assert lower_bound(values, 0) == 0
