"""The full (offline) index: a completely sorted copy of a column.

This is the "perfect" physical design all adaptive strategies converge to.
Building it costs a full sort up front (paid either offline before the
workload starts, or — for the *sort-first* baseline — by the first query);
afterwards every range query is two binary searches plus a contiguous read
of the qualifying positions.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.columnstore.bulk import binary_search_count, stable_sort_rows
from repro.columnstore.column import Column
from repro.columnstore.select import RangePredicate
from repro.cost.counters import CostCounters


class FullIndex:
    """Fully sorted secondary index over one column.

    The index stores the sorted values and, aligned with them, the original
    row positions, so a range lookup returns positions in the base column
    (late materialisation).
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        counters: Optional[CostCounters] = None,
        name: str = "",
    ) -> None:
        values = column.values if isinstance(column, Column) else np.asarray(column)
        self.name = name or (column.name if isinstance(column, Column) else "")
        n = len(values)
        self.build_counters = CostCounters()
        self.build_counters.record_scan(n)
        # the whole column as one row: its in-row positions are the row ids
        self.sorted_values, self.sorted_positions = stable_sort_rows(
            values, max(n, 1), self.build_counters
        )
        self.build_counters.record_allocation(
            self.sorted_values.nbytes + self.sorted_positions.nbytes
        )
        self.build_counters.record_pieces(1)
        if counters is not None:
            counters += self.build_counters

    def __len__(self) -> int:
        return len(self.sorted_values)

    @property
    def nbytes(self) -> int:
        """Bytes used by the index structures."""
        return int(self.sorted_values.nbytes + self.sorted_positions.nbytes)

    # -- lookups -------------------------------------------------------------

    def range_bounds(
        self,
        predicate: RangePredicate,
        counters: Optional[CostCounters] = None,
    ) -> Tuple[int, int]:
        """Offsets ``(begin, end)`` into the sorted arrays for a predicate."""
        n = len(self.sorted_values)
        if predicate.low is None:
            begin = 0
        else:
            side = "left" if predicate.include_low else "right"
            begin = int(np.searchsorted(self.sorted_values, predicate.low, side=side))
        if predicate.high is None:
            end = n
        else:
            side = "right" if predicate.include_high else "left"
            end = int(np.searchsorted(self.sorted_values, predicate.high, side=side))
        if counters is not None:
            counters.record_comparisons(2 * binary_search_count(n))
            counters.record_random_access(2)
        return begin, min(max(end, begin), n)

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Positions (in the base column) of rows with ``low <= value < high``."""
        return self.search_predicate(RangePredicate(low, high), counters)

    def search_predicate(
        self,
        predicate: RangePredicate,
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Positions satisfying an arbitrary range predicate."""
        begin, end = self.range_bounds(predicate, counters)
        if counters is not None:
            counters.record_scan(end - begin)
        return self.sorted_positions[begin:end]

    def search_values(
        self,
        predicate: RangePredicate,
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Qualifying *values* (sorted) rather than positions."""
        begin, end = self.range_bounds(predicate, counters)
        if counters is not None:
            counters.record_scan(end - begin)
        return self.sorted_values[begin:end]

    def count(
        self,
        predicate: RangePredicate,
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Number of qualifying rows (no materialisation)."""
        begin, end = self.range_bounds(predicate, counters)
        return end - begin

    def is_consistent_with(self, column: Union[Column, np.ndarray]) -> bool:
        """Verify the index still describes ``column`` (used by tests)."""
        values = column.values if isinstance(column, Column) else np.asarray(column)
        if len(values) != len(self.sorted_values):
            return False
        return bool(np.array_equal(values[self.sorted_positions], self.sorted_values))
