"""Soft indexes (Lühring et al., SMDB 2007).

Soft indexes sit between online tuning and adaptive indexing: index
recommendations are generated (and dropped) *during query processing*, and —
unlike the monitor-and-tune tools — index creation piggy-backs on a scan that
is already reading the relevant data.  Unlike adaptive indexing, however,
"neither index recommendation nor creation is incremental": when the decision
falls, the full index is built to completion in one go, charged to the query
that carried the scan.

The implementation mirrors that behaviour: every scan feeds a lightweight
recommendation counter; once a column has been scanned ``recommendation_threshold``
times, the *next* qualifying scan also pipes its data into the index-build
routine (charging sort cost but no extra scan, since the data is already
being read).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.columnstore.column import Column
from repro.columnstore.select import RangePredicate, scan_select
from repro.cost.counters import CostCounters
from repro.indexes.full_index import FullIndex


@dataclass
class SoftIndexCandidate:
    """Recommendation statistics for one column."""

    scans_observed: int = 0
    recommended: bool = False


class SoftIndexManager:
    """Soft-index style select operator: recommend during processing, build on a scan."""

    def __init__(self, recommendation_threshold: int = 3) -> None:
        if recommendation_threshold < 1:
            raise ValueError("recommendation_threshold must be >= 1")
        self.recommendation_threshold = recommendation_threshold
        self.candidates: Dict[str, SoftIndexCandidate] = {}
        self.indexes: Dict[str, FullIndex] = {}
        self.queries_processed = 0
        self.builds: list = []

    def select(
        self,
        column: Column,
        predicate: RangePredicate,
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Answer a range selection, building a full index when recommended."""
        counters = counters if counters is not None else CostCounters()
        self.queries_processed += 1
        name = column.name or str(id(column))

        if name in self.indexes:
            return self.indexes[name].lookup(predicate.low, predicate.high, counters)

        candidate = self.candidates.setdefault(name, SoftIndexCandidate())
        candidate.scans_observed += 1
        if candidate.scans_observed >= self.recommendation_threshold:
            candidate.recommended = True

        positions = scan_select(column, predicate, counters)

        if candidate.recommended:
            # Piggy-back the index build on this scan: the data was already
            # read, so only the sort and materialisation are charged here.
            index = FullIndex(column, name=name)
            counters += index.build_counters - CostCounters(tuples_scanned=len(column))
            self.indexes[name] = index
            self.builds.append((self.queries_processed, name))
        return positions
