"""The full (offline) index: a completely sorted copy of a column.

This is the "perfect" physical design all adaptive strategies converge to.
Building it costs a full sort up front (paid either offline before the
workload starts, or — for the *sort-first* baseline — by the first query);
afterwards every range query is two binary searches plus a contiguous read
of the qualifying positions.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.bulk import binary_search_count, lower_bound, stable_sort_rows
from repro.columnstore.column import Column
from repro.core.access_path import SearchStrategy
from repro.cost.counters import CostCounters


@guarded_by(queries_processed="_stats_lock")
class FullIndex(SearchStrategy):
    """Fully sorted secondary index over one column.

    The index stores the sorted values and, aligned with them, the original
    row positions, so a range lookup returns positions in the base column
    (late materialisation).  As the ``full-index`` access path it is built
    before the workload starts (offline indexing): the build cost is *not*
    charged to any query; :attr:`build_counters` exposes it so experiments
    can report it separately.
    """

    #: the index is immutable after construction: pure reader
    reorganizes_on_read = False

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
        self.queries_processed = 0
        # guards the shared query counter: the index serves concurrent
        # readers, whose increments must not be lost
        self._stats_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.sorted_values)

    @property
    def nbytes(self) -> int:
        """Bytes used by the index structures."""
        return int(self.sorted_values.nbytes + self.sorted_positions.nbytes)

    @property
    def structure_description(self) -> str:
        return f"full index ({self.nbytes} bytes)"

    # -- lookups -------------------------------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Positions (in the base column) of rows with ``low <= value < high``."""
        with self._stats_lock:
            self.queries_processed += 1
        return self.lookup(low, high, counters)

    def lookup(self, low, high, counters: Optional[CostCounters] = None) -> np.ndarray:
        """Uncounted :meth:`search`, for the paths that count their own queries
        (sort-first, the tuners): two binary searches and the run between."""
        n = len(self.sorted_values)
        begin = 0 if low is None else lower_bound(self.sorted_values, low)
        end = max(begin, n if high is None else lower_bound(self.sorted_values, high))
        if counters is not None:
            counters.record_comparisons(2 * binary_search_count(n))
            counters.record_random_access(2)
            counters.record_scan(end - begin)
        return self.sorted_positions[begin:end]

    def is_consistent_with(self, column: Union[Column, np.ndarray]) -> bool:
        """Verify the index still describes ``column`` (used by tests)."""
        values = column.values if isinstance(column, Column) else np.asarray(column)
        if len(values) != len(self.sorted_values):
            return False
        return bool(np.array_equal(values[self.sorted_positions], self.sorted_values))
