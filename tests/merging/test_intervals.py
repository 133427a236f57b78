"""Unit tests for the disjoint interval set."""

import math

import pytest

from repro.core.merging.intervals import IntervalSet


def stored(intervals):
    """The stored intervals, read through the public queries: what
    ``uncovered`` leaves out of the whole key line."""
    edges = [-math.inf]
    for gap in intervals.uncovered(-math.inf, math.inf):
        edges += gap
    edges.append(math.inf)
    return [(low, high) for low, high in zip(edges[::2], edges[1::2]) if low < high]


def spans(intervals):
    return [intervals.span(low, high) for low, high in stored(intervals)]


class TestAdd:
    def test_add_and_iterate(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(30, 40)
        assert stored(intervals) == [(10, 20), (30, 40)]
        assert len(stored(intervals)) == 2

    def test_add_merges_overlapping(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(15, 30)
        assert stored(intervals) == [(10, 30)]

    def test_add_merges_adjacent(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(20, 30)
        assert stored(intervals) == [(10, 30)]

    def test_add_bridging_interval_collapses_several(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(20, 30)
        intervals.add(40, 50)
        intervals.add(5, 45)
        assert stored(intervals) == [(0, 50)]

    def test_add_keeps_sorted_order(self):
        intervals = IntervalSet()
        intervals.add(40, 50)
        intervals.add(0, 10)
        intervals.add(20, 30)
        assert stored(intervals) == [(0, 10), (20, 30), (40, 50)]
        intervals.check_invariants()

    def test_zero_width_ignored_and_invalid_rejected(self):
        intervals = IntervalSet()
        intervals.add(5, 5)
        assert len(stored(intervals)) == 0
        with pytest.raises(ValueError):
            intervals.add(10, 5)


class TestQueries:
    def test_covers(self):
        intervals = IntervalSet()
        intervals.add(10, 30)
        assert intervals.covers(15, 25)
        assert intervals.covers(10, 30)
        assert not intervals.covers(5, 15)
        assert not intervals.covers(25, 35)
        assert intervals.covers(7, 7)  # empty range is always covered

    def test_point_membership(self):
        """A point is in the set when a range starting at it is covered."""
        intervals = IntervalSet()
        intervals.add(10, 20)
        assert intervals.covers(10, 10.5)
        assert intervals.covers(19.5, 19.75)
        assert not intervals.covers(20, 20.5)

    def test_uncovered_gaps(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(30, 40)
        assert intervals.uncovered(0, 50) == [(0, 10), (20, 30), (40, 50)]
        assert intervals.uncovered(12, 18) == []
        assert intervals.uncovered(15, 35) == [(20, 30)]
        assert intervals.uncovered(40, 60) == [(40, 60)] or intervals.uncovered(40, 60) == [(40, 60)]

    def test_uncovered_of_empty_set_is_whole_range(self):
        intervals = IntervalSet()
        assert intervals.uncovered(3, 9) == [(3, 9)]
        assert intervals.uncovered(9, 3) == []


class TestPositionSpans:
    def test_span_of_the_covering_interval(self):
        intervals = IntervalSet()
        intervals.add(10, 20, 100, 150)
        intervals.add(40, 50, 300, 320)
        assert intervals.span(12, 18) == (100, 150)
        assert intervals.span(40, 50) == (300, 320)
        assert intervals.span(7, 7) == (0, 0)  # an empty range occupies nothing
        assert spans(intervals) == [(100, 150), (300, 320)]

    def test_adjacent_intervals_coalesce_in_both_spaces(self):
        intervals = IntervalSet()
        intervals.add(10, 20, 100, 150)
        intervals.add(20, 30, 150, 190)
        assert stored(intervals) == [(10, 30)]
        assert spans(intervals) == [(100, 190)]

    def test_bridging_interval_takes_the_outer_positions(self):
        """A query over two merged ranges places only its gaps; the interval
        it leaves spans from the first range's start to the last one's stop."""
        intervals = IntervalSet()
        intervals.add(0, 10, 0, 40)
        intervals.add(20, 30, 90, 120)
        intervals.add(40, 50, 200, 230)
        # gaps [10, 20) and [30, 40) were placed at 40..90 and 120..200
        intervals.add(5, 45, 40, 200)
        assert stored(intervals) == [(0, 50)]
        assert spans(intervals) == [(0, 230)]
        intervals.check_invariants()

    def test_spans_default_to_nothing(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(15, 30)
        assert spans(intervals) == [(0, 0)]
        intervals.check_invariants()
