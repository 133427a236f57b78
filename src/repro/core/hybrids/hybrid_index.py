"""The hybrid adaptive index: initial-partition mode × final-partition mode.

:class:`HybridIndex` implements the algorithm family of PVLDB 2011.  The
first query splits the column into initial partitions (organised per
``initial_mode``); every query moves the not-yet-merged part of its key
range from the initial partitions into the final partition (organised per
``final_mode``) and answers from the final partition plus the tuples just
moved.

Canonical instances (exposed through the strategy registry):

====================  =============  ===========
name                  initial_mode   final_mode
====================  =============  ===========
hybrid-crack-crack    crack          crack
hybrid-crack-sort     crack          sort
hybrid-sort-sort      sort           sort
====================  =============  ===========

``hybrid-sort-sort`` is the main-memory formulation of adaptive merging;
``hybrid-crack-crack`` is closest to plain cracking but with bounded piece
sizes from the start.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.column import Column
from repro.core.hybrids.final_partition import FinalPartition
from repro.core.hybrids.initial_partitions import CrackedInitialPartition
from repro.core.merging.intervals import IntervalSet, as_interval, as_selection
from repro.core.merging.runs import RunSet
from repro.cost.counters import CostCounters


@guarded_by(queries_processed="_stats_lock")
class HybridIndex:
    """Adaptive index combining one initial-partition and one final-partition mode."""

    INITIAL_MODES = ("crack", "sort")
    FINAL_MODES = ("crack", "sort")

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        initial_mode: str = "crack",
        final_mode: str = "sort",
        partition_size: Optional[int] = None,
        name: str = "",
    ) -> None:
        if initial_mode not in self.INITIAL_MODES:
            raise ValueError(f"unknown initial_mode {initial_mode!r}")
        if final_mode not in self.FINAL_MODES:
            raise ValueError(f"unknown final_mode {final_mode!r}")
        if partition_size is not None and partition_size < 1:
            raise ValueError("partition_size must be >= 1")
        base = column.values if isinstance(column, Column) else np.asarray(column)
        self.name = name or (column.name if isinstance(column, Column) else "")
        self._base = base
        self.initial_mode = initial_mode
        self.final_mode = final_mode
        self.partition_size = partition_size
        self.partitions: List[Union[CrackedInitialPartition, RunSet]] = []
        self.final = FinalPartition(mode=final_mode)
        self.merged_ranges = IntervalSet()
        self.queries_processed = 0
        self.initialized = False
        # guards the shared query counter: a converged hybrid serves
        # concurrent readers, whose increments must not be lost
        self._stats_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._base)

    @property
    def nbytes(self) -> int:
        """Auxiliary storage of initial partitions plus the final partition."""
        return sum(p.nbytes for p in self.partitions) + self.final.nbytes

    @property
    def fully_merged(self) -> bool:
        """True when every tuple has moved into the final partition."""
        return self.initialized and all(len(p) == 0 for p in self.partitions)

    @property
    def read_only_under_selection(self) -> bool:
        """True when a search can no longer reorganise any physical state.

        Requires convergence on both axes: every tuple has been merged into
        the final partition (no gap extraction left) *and* every final
        piece is sorted, so lookups are binary searches.  Pieces organised
        by ``final_mode="crack"`` keep cracking on partial overlap and never
        satisfy the second condition.
        """
        return self.fully_merged and all(
            piece.sorted for piece in self.final.pieces
        )

    # -- initialization --------------------------------------------------------------

    def _initialize(self, counters: Optional[CostCounters]) -> None:
        n = len(self._base)
        size = self.partition_size or max(1, int(np.sqrt(n))) if n else 1
        if self.initial_mode == "sort":
            # every sorted partition in one run set, extracted from at once
            self.partitions.append(RunSet(self._base, size, counters))
        else:
            for start in range(0, n, size):
                end = min(start + size, n)
                self.partitions.append(CrackedInitialPartition(
                    self._base[start:end], np.arange(start, end, dtype=np.int64),
                    counters,
                ))
        self.initialized = True

    # -- the select operator ------------------------------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Base positions of rows with ``low <= value < high`` (merging as a side effect)."""
        with self._stats_lock:
            self.queries_processed += 1
        if not self.initialized:
            self._initialize(counters)
        if len(self._base) == 0:
            return np.empty(0, dtype=np.int64)

        # Once every initial partition has drained there are no gaps left
        # to extract: skip the merged-range bookkeeping entirely so that a
        # converged hybrid (sorted final pieces) is a pure read and can
        # serve concurrent queries without racing on the interval set.
        if not self.fully_merged:
            interval = as_interval(low, high)
            if not self.merged_ranges.covers(*interval):
                for gap_low, gap_high in self.merged_ranges.uncovered(*interval):
                    self._merge_gap(gap_low, gap_high, counters)
                self.merged_ranges.add(*interval)

        return self.final.search(low, high, counters)

    def _merge_gap(
        self, gap_low: float, gap_high: float, counters: Optional[CostCounters]
    ) -> None:
        """Move [gap_low, gap_high) from every initial partition into the
        final one; the final piece keeps the gap's ``-inf``/``inf`` ends."""
        values_parts: List[np.ndarray] = []
        rowid_parts: List[np.ndarray] = []
        low, high = as_selection(gap_low, gap_high)
        for partition in self.partitions:
            if len(partition) == 0:
                continue
            values, rowids = partition.extract_range(low, high, counters)
            if len(values):
                values_parts.append(values)
                rowid_parts.append(rowids)
        if not values_parts:
            return
        self.final.add_piece(
            gap_low,
            gap_high,
            np.concatenate(values_parts),
            np.concatenate(rowid_parts),
            counters,
        )

    # -- verification --------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Content preservation across partitions and the final partition (tests)."""
        if not self.initialized:
            return
        remaining = sum(len(p) for p in self.partitions)
        assert remaining + len(self.final) == len(self._base), (
            "tuples lost or duplicated during hybrid merging"
        )
        self.final.check_invariants()
        self.merged_ranges.check_invariants()
