"""Initial partitions of the hybrid algorithms.

On the first query a hybrid algorithm splits the column into partitions of
roughly equal size.  How much order each partition gets *at creation time*
is the first design axis:

* ``CrackedInitialPartition`` — no order at creation; the partition is
  cracked on demand, and qualifying tuples are carved out of it.
* :class:`~repro.core.merging.runs.RunSet` — every partition is fully
  sorted at creation (adaptive merging's sorted runs: one run set holds
  them all and extracts from all of them at once), so extraction is two
  binary searches per partition.
* ``RadixInitialPartition`` — the partition is range-clustered into
  ``2**bits`` buckets at creation; extraction touches only the overlapping
  buckets, each of which is cracked on demand.

All three expose the same interface: ``extract_range(low, high)`` removes
and returns the qualifying ``(values, rowids)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.analysis_tools.guards import charges
from repro.columnstore.bulk import radix_cluster
from repro.core.cracking.cracker_index import CrackerIndex
from repro.core.cracking.crack_engine import crack_range
from repro.cost.counters import CostCounters


class InitialPartition:
    """Interface of an initial partition (see module docstring)."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def nbytes(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def extract_range(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError


class CrackedInitialPartition(InitialPartition):
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

    @charges("movements")
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


class RadixInitialPartition(InitialPartition):
    """An initial partition range-clustered into radix buckets at creation.

    Each bucket covers a contiguous value range; extraction cracks only the
    buckets overlapping the query range, so creation is cheaper than a full
    sort while extraction is cheaper than cracking one monolithic partition.
    """

    def __init__(self, values: np.ndarray, rowids: np.ndarray, bits: int = 4,
                 counters: Optional[CostCounters] = None) -> None:
        if bits < 1:
            raise ValueError("radix bits must be >= 1")
        clustered_values, clustered_rowids, offsets = radix_cluster(
            np.asarray(values), bits, counters, payload=np.asarray(rowids)
        )
        self.buckets: List[CrackedInitialPartition] = []
        for index in range(len(offsets) - 1):
            start, end = int(offsets[index]), int(offsets[index + 1])
            bucket = CrackedInitialPartition.__new__(CrackedInitialPartition)
            bucket.values = clustered_values[start:end].copy()
            bucket.rowids = clustered_rowids[start:end].copy()
            bucket.index = CrackerIndex(end - start)
            self.buckets.append(bucket)
        if counters is not None:
            counters.record_allocation(
                clustered_values.nbytes + clustered_rowids.nbytes
            )
            counters.record_pieces(len(self.buckets))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)

    @property
    def nbytes(self) -> int:
        return sum(bucket.nbytes for bucket in self.buckets)

    @charges("comparisons")
    def extract_range(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Extract from every bucket whose value range overlaps the query."""
        values_parts: List[np.ndarray] = []
        rowid_parts: List[np.ndarray] = []
        for bucket in self.buckets:
            if len(bucket) == 0:
                continue
            bucket_min = bucket.values.min()
            bucket_max = bucket.values.max()
            if counters is not None:
                counters.record_comparisons(2)
            if (high is not None and bucket_min >= high) or (
                low is not None and bucket_max < low
            ):
                continue
            extracted_values, extracted_rowids = bucket.extract_range(
                low, high, counters
            )
            if len(extracted_values):
                # collecting the per-bucket blocks is bookkeeping; the data
                # movement is charged inside bucket.extract_range
                values_parts.append(extracted_values)  # reproperf: ignore[PF003]
                rowid_parts.append(extracted_rowids)  # reproperf: ignore[PF003]
        if not values_parts:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        return np.concatenate(values_parts), np.concatenate(rowid_parts)
