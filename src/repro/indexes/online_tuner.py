"""Online index tuning (monitor-and-tune, COLT-style).

Online indexing "transfers the concepts of offline analysis online": while
processing queries the system monitors which columns are touched and how
much an index would have helped; once the accumulated estimated benefit of a
candidate index exceeds its build cost (times a configurable factor), the
index is built — interrupting, and being paid for by, the query that crossed
the threshold.  A built index is never dropped.

This reproduces the behavioural envelope of COLT (Schnaitter et al., SIGMOD
2006) and the online physical-design work of Bruno & Chaudhuri (ICDE 2007):
no query before the threshold benefits at all, and the triggering query pays
a large penalty — the two weaknesses adaptive indexing removes.
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
class CandidateStatistics:
    """Bookkeeping for one candidate index (one column)."""

    queries_observed: int = 0
    accumulated_benefit: float = 0.0
    last_query_seen: int = 0


class OnlineIndexTuner:
    """Monitors per-column query benefit and builds full indexes online.

    Parameters
    ----------
    build_threshold_factor:
        The index is built once the accumulated estimated benefit exceeds
        ``build_threshold_factor`` times the estimated build cost.  A factor
        of 1.0 means "build as soon as the index would have paid for
        itself"; larger factors are more conservative.
    """

    def __init__(self, build_threshold_factor: float = 1.0) -> None:
        if build_threshold_factor <= 0:
            raise ValueError("build_threshold_factor must be positive")
        self.build_threshold_factor = build_threshold_factor
        self.candidates: Dict[str, CandidateStatistics] = {}
        self.indexes: Dict[str, FullIndex] = {}
        self.queries_processed = 0
        self.builds: list = []

    # -- cost estimates --------------------------------------------------------

    @staticmethod
    def _scan_cost(rows: int) -> float:
        return 2.0 * rows  # scan + comparison per row, cf. cost model weights

    @staticmethod
    def _indexed_cost(rows: int, qualifying: int) -> float:
        return qualifying + 2.0 * max(1.0, np.log2(max(rows, 2)))

    @staticmethod
    def _build_cost(rows: int) -> float:
        return rows * max(1.0, np.log2(max(rows, 2))) + 2.0 * rows

    # -- the select operator ----------------------------------------------------

    def select(
        self,
        column: Column,
        predicate: RangePredicate,
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Answer a range selection, possibly triggering an index build.

        The call path mirrors a monitor-and-tune kernel: if an index exists
        it is used; otherwise the column is scanned, the candidate's benefit
        counter is updated, and — if the threshold is crossed — a full index
        is built right now, charged to this query.
        """
        counters = counters if counters is not None else CostCounters()
        self.queries_processed += 1
        name = column.name or str(id(column))
        rows = len(column)

        if name in self.indexes:
            stats = self.candidates.setdefault(name, CandidateStatistics())
            stats.queries_observed += 1
            stats.last_query_seen = self.queries_processed
            return self.indexes[name].lookup(predicate.low, predicate.high, counters)

        # no index: scan, then update monitoring state
        positions = scan_select(column, predicate, counters)
        stats = self.candidates.setdefault(name, CandidateStatistics())
        stats.queries_observed += 1
        stats.last_query_seen = self.queries_processed
        benefit = self._scan_cost(rows) - self._indexed_cost(rows, len(positions))
        stats.accumulated_benefit += max(benefit, 0.0)

        if stats.accumulated_benefit >= self.build_threshold_factor * self._build_cost(rows):
            self._build_index(name, column, counters)
        return positions

    # -- index lifecycle -----------------------------------------------------------

    def _build_index(self, name: str, column: Column, counters: CostCounters) -> None:
        self.indexes[name] = FullIndex(column, counters=counters, name=name)
        self.builds.append((self.queries_processed, name))
