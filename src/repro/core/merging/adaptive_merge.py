"""The adaptive merging select operator.

Behaviour (Graefe & Kuno, EDBT 2010):

* The **first query** performs run generation: the column is cut into
  sorted runs (partitioned-B-tree partitions) and the query's own range is
  immediately merged into the final partition.
* **Every subsequent query** first serves whatever part of its range is
  already in the final partition (two binary searches), then extracts the
  still-unmerged part of the range from every run (binary searches + bulk
  moves) and merges it into the final partition.
* Once a key range has been merged, queries inside it touch only the final
  partition — the adaptation overhead for that range is gone.

Layout
------
The runs are one :class:`~repro.core.merging.runs.RunSet`.  The final
partition is a pair of arrays of the column's length, allocated untouched at
the first query and **laid out by rank**: slot ``i`` is reserved for the
column's ``i``-th smallest value.  A gap the search path hands to
``_merge_range`` is an *uncovered* stretch of the merged-range set, so it
holds no merged value — the invariant the immutable runs rest on — and the
run set returns, with the gap's tuples, the rank of its lower bound: the
sorted block is written at ``[rank, rank + k)`` and nothing is spliced or
copied again.  Merged ranges are contiguous in both spaces
(:class:`~repro.core.merging.intervals.IntervalSet` keeps the position span
beside each value interval), so a query whose range is covered is two binary
searches inside one span.  The cost model keeps billing the modelled
algorithm — a splice into a dense final partition of ``merged_count``
tuples — not these arrays.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.bulk import binary_search_count, sort_comparisons
from repro.columnstore.column import Column
from repro.core.access_path import SearchStrategy
from repro.core.merging.intervals import IntervalSet, as_interval, as_selection
from repro.core.merging.runs import RunSet
from repro.cost.counters import CostCounters


@guarded_by(queries_processed="_stats_lock")
class AdaptiveMergingIndex(SearchStrategy):
    """Adaptive merging over sorted runs with a growing final partition."""

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        run_size: Optional[int] = None,
    ) -> None:
        base = column.values if isinstance(column, Column) else np.asarray(column)
        self._base = base
        self.run_size = run_size
        #: the sorted runs; generated by the first query
        self.runs: Optional[RunSet] = None
        # the final partition, laid out by rank; sized by the first query
        self._final_values = np.empty(0, dtype=base.dtype)
        self._final_rowids = np.empty(0, dtype=np.int64)
        self.merged_ranges = IntervalSet()
        self.queries_processed = 0
        self.initialized = False
        # guards the shared query counter: a fully merged index serves
        # concurrent readers, whose increments must not be lost
        self._stats_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._base)

    @property
    def nbytes(self) -> int:
        """Auxiliary storage: live run entries plus merged tuples — every
        tuple is one or the other (the logical figure; see the run set on
        what an extracted entry keeps)."""
        return len(self._base) * (self._base.itemsize + 8) if self.initialized else 0

    @property
    def merged_count(self) -> int:
        """Tuples moved into the final partition so far: those no run holds."""
        return len(self._base) - len(self.runs) if self.initialized else 0

    @property
    def run_count(self) -> int:
        """Number of non-empty runs remaining."""
        return self.runs.run_count if self.initialized else 0

    @property
    def fully_merged(self) -> bool:
        """True once every tuple has moved into the final partition."""
        return self.initialized and len(self.runs) == 0

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating until every run has drained into the final partition."""
        return not self.fully_merged

    #: the index itself, as ``benchmarks/e21_layers`` reads its run count
    index = property(lambda self: self)

    @property
    def structure_description(self) -> str:
        return (
            f"adaptive merging: {self.run_count} runs left, "
            f"{self.merged_count} tuples merged"
        )

    # -- initialization --------------------------------------------------------------

    def _initialize(self, counters: Optional[CostCounters]) -> None:
        self.runs = RunSet(self._base, self.run_size, counters)
        n = len(self._base)
        # untouched until a block is merged in, so not resident before
        self._final_values = np.empty(n, dtype=self._base.dtype)
        self._final_rowids = np.empty(n, dtype=np.int64)
        self.initialized = True

    # -- merging -----------------------------------------------------------------------

    def _merge_range(
        self,
        low: float,
        high: float,
        counters: Optional[CostCounters],
    ) -> Tuple[int, int]:
        """Extract [low, high) from every run and merge it into the final
        partition; returns the position span the range occupies there.
        ``-inf``/``inf`` are the open ends of the merged-range set.

        Callers must pass a range that contains no already-merged values
        (the search path iterates over the *uncovered* gaps of the query
        range), so the extracted block is contiguous in value space with
        respect to the final partition and lands at one spot: its rank.
        """
        values, rowids, rank = self.runs.extract_ranked(*as_selection(low, high), counters)
        k = len(values)
        if k == 0:
            return rank, rank
        order = np.argsort(values, kind="stable")
        self._final_values[rank:rank + k] = values[order]
        self._final_rowids[rank:rank + k] = rowids[order]
        if counters is not None:
            counters.record_comparisons(sort_comparisons(k))
            counters.record_move(k)
            merged = self.merged_count
            if merged > k:
                # splicing the sorted block into a non-empty final partition
                counters.record_move(k)
                counters.record_comparisons(binary_search_count(merged))
        return rank, rank + k

    # -- the select operator --------------------------------------------------------------

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

        # Once every run has drained into the final partition there is
        # nothing left to merge: skip the merged-range bookkeeping entirely
        # so the search is a pure read (concurrent queries may then fan out
        # over the index without racing on the interval set).
        if self.fully_merged:
            start, stop = 0, len(self._base)
        else:
            interval = as_interval(low, high)
            ranges = self.merged_ranges
            if not ranges.covers(*interval):
                placed = [
                    self._merge_range(gap_low, gap_high, counters)
                    for gap_low, gap_high in ranges.uncovered(*interval)
                ]
                ranges.add(*interval, placed[0][0], placed[-1][1])
            start, stop = ranges.span(*interval)

        # the answer lies inside the one span that covers the range; bisect
        # compares element by element, with no copy of the span
        final_values = self._final_values
        begin = start if low is None else bisect_left(final_values, low, start, stop)
        end = stop if high is None else bisect_left(final_values, high, start, stop)
        end = max(end, begin)
        if counters is not None:
            counters.record_comparisons(2 * binary_search_count(self.merged_count))
            counters.record_scan(end - begin)
        return self._final_rowids[begin:end].copy()

    # -- verification ----------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Content preservation and sortedness checks (test helper)."""
        if not self.initialized:
            return
        self.runs.check_invariants(self._base)
        self.merged_ranges.check_invariants()
        spans = self.merged_ranges._spans
        assert sum(stop - start for start, stop in spans) == self.merged_count, (
            "tuples lost or duplicated during merging"
        )
        for start, stop in spans:
            values = self._final_values[start:stop]
            assert bool(np.all(values[:-1] <= values[1:])), "final partition not sorted"
            assert np.array_equal(self._base[self._final_rowids[start:stop]], values), (
                "final partition misaligned with base column"
            )
