"""Unit tests for the bulk physical kernels."""

import numpy as np
import pytest

from repro.columnstore.bulk import (
    binary_search_count,
    filter_range,
    gather,
    merge_sorted_with_positions,
    partition_three_way,
    partition_two_way,
    radix_cluster,
    range_mask,
    scatter,
    stable_sort_segment,
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


class TestSortAndRadix:
    def test_stable_sort_segment(self):
        values = np.array([9, 3, 7, 1, 5])
        payload = np.arange(5)
        stable_sort_segment(values, 1, 4, payload=payload)
        assert np.array_equal(values, [9, 1, 3, 7, 5])
        original = np.array([9, 3, 7, 1, 5])
        assert np.array_equal(original[payload], values)

    def test_stable_sort_single_element_noop(self):
        values = np.array([2, 1])
        stable_sort_segment(values, 0, 1)
        assert np.array_equal(values, [2, 1])

    def test_radix_cluster_buckets_are_value_ordered(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1000, size=500)
        clustered, payload, offsets = radix_cluster(values, bits=3)
        assert len(offsets) == 9
        assert offsets[-1] == 500
        # every bucket's max is <= next bucket's min
        for b in range(8):
            left = clustered[offsets[b]:offsets[b + 1]]
            for c in range(b + 1, 8):
                right = clustered[offsets[c]:offsets[c + 1]]
                if len(left) and len(right):
                    assert left.max() <= right.min()
        # payload maps back to original values
        assert np.array_equal(values[payload], clustered)

    def test_radix_cluster_empty_and_constant(self):
        clustered, payload, offsets = radix_cluster(np.empty(0, dtype=np.int64), 2)
        assert len(clustered) == 0 and offsets[-1] == 0
        clustered, payload, offsets = radix_cluster(np.full(10, 7), 2)
        assert len(clustered) == 10
        assert offsets[-1] == 10


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
