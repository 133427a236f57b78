"""Disjoint half-open interval bookkeeping.

Adaptive merging must remember which key ranges have already been merged
into the final partition so that (a) fully-merged ranges are served without
touching the runs at all ("overhead ... disappears when a range has been
fully-optimized") and (b) convergence can be measured structurally.

Layout
------
The intervals are kept as parallel lists sorted by value — lower bounds,
upper bounds — so ``covers``/``uncovered``/``add`` find their place by
``bisect`` and touch only the intervals a range overlaps.  Every interval
also carries a **position span** ``(start, stop)``: where, in a final
partition laid out by rank (slot ``i`` holds the column's ``i``-th smallest
value), the interval's tuples sit.  A covered interval ``[low, high)`` holds
*every* value of the column in it, so its span is ``[rank(low), rank(high))``
and intervals that touch in value space touch in position space: ``add``
coalesces both at once.  Owners that place nothing by position (the hybrids,
whose final partition is a list of pieces) leave the spans at their default
and never read them.

Bounds are keys of the column's type and an open bound is ``-inf``/``inf``
(Python compares ``int`` with ``float`` exactly); kernels get ``None`` back.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple


def as_interval(low, high) -> Tuple:
    """A selection ``[low, high)`` as an interval: ``None`` is ``-inf``/``inf``."""
    return (-math.inf if low is None else low, math.inf if high is None else high)


def as_selection(low, high) -> Tuple:
    """An interval as a kernel's selection: ``-inf``/``inf`` is ``None``."""
    return (None if low == -math.inf else low, None if high == math.inf else high)


class IntervalSet:
    """A set of disjoint half-open intervals ``[low, high)`` over keys."""

    def __init__(self) -> None:
        self._lows: List[float] = []
        self._highs: List[float] = []
        self._spans: List[Tuple[int, int]] = []

    def add(self, low: float, high: float, start: int = 0, stop: int = 0) -> None:
        """Add ``[low, high)``, which occupies positions ``[start, stop)``,
        merging with overlapping or adjacent intervals (and their spans)."""
        if high < low:
            raise ValueError(f"invalid interval: high ({high}) < low ({low})")
        if high == low:
            return
        # the stored intervals that overlap or touch [low, high)
        first = bisect_left(self._highs, low)
        last = bisect_right(self._lows, high)
        if first < last:
            low = min(low, self._lows[first])
            high = max(high, self._highs[last - 1])
            start = min(start, self._spans[first][0])
            stop = max(stop, self._spans[last - 1][1])
        self._lows[first:last] = [low]
        self._highs[first:last] = [high]
        self._spans[first:last] = [(start, stop)]

    def _covering(self, low: float, high: float) -> Optional[int]:
        """Index of the stored interval ``[low, high)`` lies inside, if any."""
        index = bisect_right(self._lows, low) - 1
        if index >= 0 and high <= self._highs[index]:
            return index
        return None

    def covers(self, low: float, high: float) -> bool:
        """True when ``[low, high)`` is entirely inside one stored interval."""
        return high <= low or self._covering(low, high) is not None

    def span(self, low: float, high: float) -> Tuple[int, int]:
        """Position span of the stored interval that covers ``[low, high)``
        (:meth:`covers` must hold); an empty range occupies no position."""
        if high <= low:
            return 0, 0
        return self._spans[self._covering(low, high)]

    def uncovered(self, low: float, high: float) -> List[Tuple[float, float]]:
        """Sub-intervals of ``[low, high)`` not covered by the set."""
        if high <= low:
            return []
        # the stored intervals that overlap [low, high): a gap opens where
        # one ends (or at ``low``) and closes where the next begins (or at
        # ``high``); the two outer candidates are empty when ``low``/``high``
        # fall inside an interval
        first = bisect_right(self._highs, low)
        last = bisect_left(self._lows, high)
        opens = [low] + self._highs[first:last]
        closes = self._lows[first:last] + [high]
        return [(a, b) for a, b in zip(opens, closes) if a < b]

    def check_invariants(self) -> None:
        """Disjointness and ordering checks, in both spaces (test helper)."""
        for low, high, (start, stop) in zip(self._lows, self._highs, self._spans):
            assert low < high, "degenerate interval stored"
            assert start <= stop, "interval occupies a negative span"
        for index in range(len(self._lows) - 1):
            assert self._highs[index] < self._lows[index + 1], (
                "intervals overlap, touch or are unsorted"
            )
            assert self._spans[index][1] <= self._spans[index + 1][0], (
                "position spans are not ordered like their intervals"
            )
