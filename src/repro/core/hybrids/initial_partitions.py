"""Initial partitions of the hybrid algorithms.

On the first query a hybrid algorithm splits the column into partitions of
roughly equal size.  How much order each partition gets *at creation time*
is the first design axis:

* :class:`CrackedInitialPartition` — no order at creation; the partition is
  cracked on demand, and qualifying tuples are carved out of it.
* :class:`~repro.core.merging.runs.RunSet` — every partition is fully
  sorted at creation (adaptive merging's sorted runs: one run set holds
  them all and extracts from all of them at once), so extraction is two
  binary searches per partition.

Both expose the same interface: ``extract_range(low, high)`` removes and
returns the qualifying ``(values, rowids)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.cracking.cracker_index import CrackerIndex
from repro.core.cracking.crack_engine import crack_range
from repro.cost.counters import CostCounters


class CrackedInitialPartition:
    """An initial partition organised lazily by cracking."""

    def __init__(self, values: np.ndarray, rowids: np.ndarray,
                 counters: Optional[CostCounters] = None) -> None:
        self.values = np.array(values, copy=True)
        self.rowids = np.array(rowids, copy=True)
        self.index = CrackerIndex(len(self.values))
        if counters is not None:
            counters.record_scan(len(self.values))
            counters.record_move(len(self.values))
            counters.record_allocation(self.values.nbytes + self.rowids.nbytes)
            counters.record_pieces(1)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes + self.rowids.nbytes)

    def extract_range(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Crack the partition on [low, high), then carve the middle out."""
        if len(self.values) == 0:
            return np.empty(0, dtype=self.values.dtype), np.empty(0, dtype=np.int64)
        start, end = crack_range(
            self.values, self.rowids, self.index, low, high, counters
        )
        if start >= end:
            return np.empty(0, dtype=self.values.dtype), np.empty(0, dtype=np.int64)
        extracted_values = self.values[start:end].copy()
        extracted_rowids = self.rowids[start:end].copy()
        removed = end - start
        # physically remove the extracted region and fix up the boundaries
        self.values = np.concatenate([self.values[:start], self.values[end:]])
        self.rowids = np.concatenate([self.rowids[:start], self.rowids[end:]])
        self.index.drop_boundaries_in_position_range(start, end)
        self.index.shift_positions(end, -removed)
        if counters is not None:
            counters.record_move(removed)
        return extracted_values, extracted_rowids
