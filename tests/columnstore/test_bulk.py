"""Unit tests for the bulk physical kernels."""

import numpy as np
import pytest

from repro.columnstore.bulk import (
    binary_search_count,
    binary_search_counts,
    filter_range,
    lower_bound,
    partition_copy,
    partition_three_way,
    partition_two_way,
    range_mask,
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


def _reference_partition(values, start, end, pivots, payloads):
    """A partition kernel's expected result: the segment and its payloads
    in stable-argsort order of each element's group (how many of the
    ascending ``pivots`` it is at or above), and the absolute position
    where each group after the first begins."""
    segment = values[start:end]
    groups = np.searchsorted(np.asarray(pivots, dtype=values.dtype), segment,
                             side="right")
    order = np.argsort(groups, kind="stable")
    expected = values.copy()
    expected[start:end] = segment[order]
    moved = []
    for payload in payloads:
        shuffled = payload.copy()
        shuffled[start:end] = payload[start:end][order]
        moved.append(shuffled)
    splits = [start + int(np.count_nonzero(groups < g)) for g in range(1, len(pivots) + 1)]
    return expected, moved, splits


def _segment(dtype, case):
    """A 12-element column whose segment ``[2, 10)`` is ``case``; the pivots
    are 40 and 60 of ``dtype`` (``top`` puts uint64 keys past 2**63)."""
    top = 2**63 if np.dtype(dtype) == np.uint64 else 0
    inner = {
        # ties at both pivots, mixed order
        "ties": [60, 10, 40, 70, 40, 60, 5, 45],
        "all_below": [1, 9, 3, 7, 3, 2, 8, 0],
        "all_above": [90, 60, 71, 60, 99, 80, 61, 75],
        "all_middle": [40, 59, 41, 40, 50, 58, 42, 55],
        "empty": [],
    }[case]
    column = [33] * 2 + inner + [33] * 2
    values = np.array([top + v for v in column], dtype=dtype)
    end = 2 + len(inner)
    pivots = (np.dtype(dtype).type(top + 40), np.dtype(dtype).type(top + 60))
    return values, end, pivots


PARTITION_DTYPES = [np.int64, np.uint64, np.float64]
PARTITION_CASES = ["ties", "all_below", "all_above", "all_middle", "empty"]


class TestPartitionAgainstStableArgsort:
    """The partition kernels equal a stable argsort of the group keys —
    layout, payloads, split positions and charges — on every column type,
    in place and out of place."""

    @pytest.mark.parametrize("payload_count", [0, 1, 2])
    @pytest.mark.parametrize("case", PARTITION_CASES)
    @pytest.mark.parametrize("dtype", PARTITION_DTYPES)
    @pytest.mark.parametrize("ways", [2, 3])
    def test_partition_kernel(self, ways, dtype, case, payload_count):
        values, end, pivots = _segment(dtype, case)
        pivots = pivots[:ways - 1]
        payloads = [np.arange(len(values), dtype=np.int64) * (k + 1)
                    for k in range(payload_count)]
        expected, moved, splits = _reference_partition(values, 2, end, pivots, payloads)
        payload = None if not payloads else payloads[0] if payload_count == 1 else payloads
        counters = CostCounters()
        if ways == 2:
            result = (partition_two_way(values, 2, end, *pivots, counters, payload=payload),)
        else:
            result = partition_three_way(values, 2, end, *pivots, counters, payload=payload)
        assert result == tuple(splits)
        assert values.dtype == dtype and np.array_equal(values, expected)
        for actual, reference in zip(payloads, moved):
            assert np.array_equal(actual, reference)
        n = end - 2
        assert (counters.tuples_scanned, counters.comparisons,
                counters.tuples_moved) == (n, (ways - 1) * n, n)

    @pytest.mark.parametrize("case", PARTITION_CASES)
    @pytest.mark.parametrize("dtype", PARTITION_DTYPES)
    @pytest.mark.parametrize("ways", [2, 3])
    def test_partition_copy(self, ways, dtype, case):
        # the segment alone, out of place: its grouped values, the
        # permutation as the positions an aligned arange would hold, and the
        # in-place kernel's splits and charges
        values, end, pivots = _segment(dtype, case)
        source = values[2:end].copy()
        before = source.copy()
        expected, (order,), splits = _reference_partition(
            source, 0, len(source), pivots[:ways - 1],
            [np.arange(len(source), dtype=np.int64)])
        counters = CostCounters()
        copied, permutation, *result = partition_copy(
            source, *pivots[:ways - 1], counters=counters)
        assert result == (splits * 2)[:2] and all(type(s) is int for s in result)
        assert copied.dtype == dtype and np.array_equal(copied, expected)
        assert permutation.dtype == np.int64 and np.array_equal(permutation, order)
        assert np.array_equal(source, before)
        n = len(source)
        assert (counters.tuples_scanned, counters.comparisons,
                counters.tuples_moved) == (n, (ways - 1) * n, n)

    @pytest.mark.parametrize("dtype", PARTITION_DTYPES)
    def test_partition_three_way_with_equal_bounds(self, dtype):
        values, end, (pivot, _) = _segment(dtype, "ties")
        expected, _, (split,) = _reference_partition(values, 2, end, [pivot], [])
        assert partition_three_way(values, 2, end, pivot, pivot) == (split, split)
        assert np.array_equal(values, expected)

    def test_splits_are_python_ints(self):
        values, end, (low, high) = _segment(np.int64, "ties")
        split = partition_two_way(values.copy(), 2, end, low)
        splits = partition_three_way(values, 2, end, low, high)
        assert all(type(s) is int for s in (split, *splits))


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
    def test_binary_search_count(self):
        assert binary_search_count(0) == 0
        assert binary_search_count(1) == 1
        assert binary_search_count(1024) == 11

    def test_binary_search_counts_match_the_scalar_count(self):
        sizes = np.array([0, 1, 2, 3, 7, 8, 1023, 1024])
        assert binary_search_counts(sizes).tolist() == [
            binary_search_count(int(n)) for n in sizes
        ]

    def test_both_counts_are_the_bit_length_at_every_size(self):
        # float64 rounds log2(n + 1) and int -> float conversions from 2**53
        # on; the counts are ceil(log2(n + 1)) = n.bit_length() exactly
        wide = [2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1, 2**60 - 1, 2**60,
                2**63 - 1]
        sizes = np.concatenate((np.arange(2**16 + 1), np.array(wide)))
        expected = [n.bit_length() for n in sizes.tolist()]
        assert binary_search_counts(sizes).tolist() == expected
        assert [binary_search_count(n) for n in sizes.tolist()] == expected
        assert [binary_search_count(n) for n in sizes] == expected  # numpy ints
        assert binary_search_count(2**53) == 54
        assert binary_search_count(2**60) == 61

    def test_lower_bound_searches_uint64_keys_exactly(self):
        # past 2**53 a Python int searched as float64 would round
        top = 2**64 - 1
        values = np.array([2**53, 2**53 + 1, top - 1, top], dtype=np.uint64)
        assert lower_bound(values, 2**53 + 1) == 1
        assert lower_bound(values, top) == 3
        assert lower_bound(values, 0) == 0
