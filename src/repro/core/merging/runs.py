"""Sorted run creation and range extraction.

The first query of adaptive merging performs *run generation*: the column is
cut into equal-size chunks, each chunk is sorted (with its row identifiers),
and the chunks become the initial partitions of a partitioned B-tree.  Run
generation is a single sequential pass plus per-run sorts — far cheaper than
a full sort in a disk-based setting (one pass instead of log-many) and the
only moment adaptive merging touches rows the workload never asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import charges
from repro.columnstore.bulk import binary_search_count
from repro.columnstore.column import Column
from repro.cost.counters import CostCounters


@dataclass
class SortedRun:
    """One sorted run: values in non-decreasing order with aligned row ids."""

    values: np.ndarray
    rowids: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != len(self.rowids):
            raise ValueError("run values and rowids must be aligned")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes + self.rowids.nbytes)

    def key_range(self) -> Tuple[float, float]:
        """(min, max) key in the run; raises on an empty run."""
        if len(self.values) == 0:
            raise ValueError("empty run has no key range")
        return float(self.values[0]), float(self.values[-1])

    @charges("scans", "comparisons", "movements", "random_accesses")
    def extract_range(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Remove and return ``(values, rowids)`` with ``low <= value < high``.

        The qualifying entries are located with binary searches (the run is
        sorted) and physically removed from the run, exactly like adaptive
        merging moves tuples out of initial partitions into the final one.
        """
        n = len(self.values)
        if n == 0:
            return (
                np.empty(0, dtype=self.values.dtype),
                np.empty(0, dtype=np.int64),
            )
        begin = 0 if low is None else int(np.searchsorted(self.values, low, side="left"))
        end = n if high is None else int(np.searchsorted(self.values, high, side="left"))
        end = max(end, begin)
        if counters is not None:
            counters.record_comparisons(2 * binary_search_count(n))
            counters.record_random_access(2)
        if begin == end:
            return (
                np.empty(0, dtype=self.values.dtype),
                np.empty(0, dtype=np.int64),
            )
        extracted_values = self.values[begin:end].copy()
        extracted_rowids = self.rowids[begin:end].copy()
        self.values = np.concatenate([self.values[:begin], self.values[end:]])
        self.rowids = np.concatenate([self.rowids[:begin], self.rowids[end:]])
        if counters is not None:
            counters.record_scan(end - begin)
            counters.record_move(end - begin)
        return extracted_values, extracted_rowids

    def peek_range_count(
        self, low: Optional[float], high: Optional[float]
    ) -> int:
        """Number of entries in range without extracting them."""
        n = len(self.values)
        if n == 0:
            return 0
        begin = 0 if low is None else int(np.searchsorted(self.values, low, side="left"))
        end = n if high is None else int(np.searchsorted(self.values, high, side="left"))
        return max(0, end - begin)

    def is_sorted(self) -> bool:
        """True when the run respects its sortedness invariant (tests)."""
        if len(self.values) <= 1:
            return True
        return bool(np.all(self.values[:-1] <= self.values[1:]))


def sorted_run(
    values: np.ndarray,
    rowids: np.ndarray,
    counters: Optional[CostCounters] = None,
) -> SortedRun:
    """Sort one chunk (with its row identifiers) into a run, charging the
    pass over it, the sort and the run's storage."""
    order = np.argsort(values, kind="stable")
    run = SortedRun(values=np.asarray(values)[order], rowids=np.asarray(rowids)[order])
    if counters is not None:
        size = len(run)
        counters.record_scan(size)
        counters.record_move(size)
        counters.record_comparisons(int(size * max(1.0, np.log2(max(size, 2)))))
        counters.record_allocation(run.nbytes)
        counters.record_pieces(1)
    return run


def create_runs(
    column: Union[Column, np.ndarray],
    run_size: Optional[int] = None,
    counters: Optional[CostCounters] = None,
) -> List[SortedRun]:
    """Cut ``column`` into sorted runs of ``run_size`` elements.

    The default run size is ``sqrt(n)`` (giving about ``sqrt(n)`` runs),
    which mirrors the memory-limited run generation of the original work and
    keeps both the number of runs and the per-run sort cost balanced.
    """
    values = column.values if isinstance(column, Column) else np.asarray(column)
    n = len(values)
    if n == 0:
        return []
    if run_size is None:
        run_size = max(1, int(np.sqrt(n)))
    if run_size < 1:
        raise ValueError("run_size must be >= 1")
    runs: List[SortedRun] = []
    for start in range(0, n, run_size):
        end = min(start + run_size, n)
        rowids = np.arange(start, end, dtype=np.int64)
        # one call per run (about sqrt(n) of them, first query only); the
        # sort inside is the bulk kernel
        runs.append(sorted_run(values[start:end], rowids, counters))  # reproperf: ignore[PF005]
    return runs
