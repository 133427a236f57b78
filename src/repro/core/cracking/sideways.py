"""Sideways cracking: self-organising tuple reconstruction (SIGMOD 2009).

Late tuple reconstruction over a *cracked* column is expensive: cracking
permutes the selection column's copy, so fetching the other attributes of
qualifying rows becomes scattered random access.  Sideways cracking solves
this with *cracker maps*: for a selection attribute ``A`` and any other
attribute ``B`` that queries project, the map ``M(A, B)`` stores aligned
copies of both attributes and is cracked **on A**, dragging the B values
along.  After cracking, the B values of qualifying rows are contiguous — no
random access.

Alignment.  All maps of the same selection attribute must stay aligned (the
same physical row order) so multi-attribute projections can simply zip their
contiguous segments.  Because crack-in-two/three is deterministic given the
same initial order and the same pivot sequence, alignment is maintained by
*adaptive alignment*: the map set records the full crack history of ``A``;
each map records how much of that history it has applied, and catches up
lazily when it is next used.  Maps are created lazily, only for attribute
pairs actually queried (partial sideways cracking), optionally under a
storage budget with LRU eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.columnstore.storage import StorageBudget
from repro.columnstore.table import Table
from repro.core.cracking.cracker_index import CrackerIndex
from repro.core.cracking.crack_engine import crack_range, crack_value
from repro.cost.counters import CostCounters


@dataclass
class CrackerMap:
    """A cracker map M(head, tail): head values cracked, tail dragged along."""

    head_name: str
    tail_name: str
    head_values: np.ndarray
    tail_values: np.ndarray
    rowids: np.ndarray
    index: CrackerIndex
    applied_cracks: int = 0
    last_used: int = 0

    @property
    def nbytes(self) -> int:
        return int(
            self.head_values.nbytes + self.tail_values.nbytes + self.rowids.nbytes
        )


class SidewaysCracker:
    """Cracker-map manager for one table and one selection attribute.

    Parameters
    ----------
    table:
        The base table.
    head:
        The selection attribute all maps of this set are cracked on.
    budget:
        Optional storage budget for the materialised maps (partial sideways
        cracking); least-recently-used maps are evicted under pressure and
        re-materialised on demand.
    """

    def __init__(
        self,
        table: Table,
        head: str,
        budget: Optional[StorageBudget] = None,
    ) -> None:
        if head not in table:
            raise KeyError(f"selection attribute {head!r} not in table {table.name!r}")
        self.table = table
        self.head = head
        self.budget = budget or StorageBudget(limit_bytes=None)
        # full crack history of the head attribute: sequence of pivots
        self.crack_history: List[float] = []
        self.maps: Dict[str, CrackerMap] = {}
        self.queries_processed = 0
        self.evictions = 0

    # -- map lifecycle -----------------------------------------------------------

    def _create_map(self, tail: str, counters: Optional[CostCounters]) -> CrackerMap:
        """Materialise the cracker map M(head, tail) from the base table."""
        if tail not in self.table:
            raise KeyError(f"attribute {tail!r} not in table {self.table.name!r}")
        head_column = self.table.column(self.head)
        tail_column = self.table.column(tail)
        head_values = head_column.values.copy()
        tail_values = tail_column.values.copy()
        rowids = np.arange(len(head_values), dtype=np.int64)
        needed = int(head_values.nbytes + tail_values.nbytes + rowids.nbytes)
        while not self.budget.can_allocate(needed) and self.maps:
            self._evict_one(exclude=tail)
        self.budget.reserve(needed)
        cracker_map = CrackerMap(
            head_name=self.head,
            tail_name=tail,
            head_values=head_values,
            tail_values=tail_values,
            rowids=rowids,
            index=CrackerIndex(len(head_values)),
            applied_cracks=0,
            last_used=self.queries_processed,
        )
        if counters is not None:
            counters.record_scan(2 * len(head_values))
            counters.record_move(2 * len(head_values))
            counters.record_allocation(needed)
        self.maps[tail] = cracker_map
        return cracker_map

    def _evict_one(self, exclude: Optional[str] = None) -> None:
        candidates = [m for name, m in self.maps.items() if name != exclude]
        if not candidates:
            return
        victim = min(candidates, key=lambda m: m.last_used)
        self.budget.release(victim.nbytes)
        del self.maps[victim.tail_name]
        self.evictions += 1

    def get_map(self, tail: str, counters: Optional[CostCounters] = None) -> CrackerMap:
        """Return the map M(head, tail), creating and aligning it as needed."""
        cracker_map = self.maps.get(tail)
        if cracker_map is None:
            cracker_map = self._create_map(tail, counters)
        self._align(cracker_map, counters)
        cracker_map.last_used = self.queries_processed
        return cracker_map

    # -- adaptive alignment ----------------------------------------------------------

    def _align(self, cracker_map: CrackerMap, counters: Optional[CostCounters]) -> None:
        """Replay missed cracks so this map catches up with the history."""
        # replaying cracks never appends to the history, so its length is
        # loop-invariant (PF004) — measure once, index through a local
        history = self.crack_history
        total = len(history)
        while cracker_map.applied_cracks < total:
            pivot = history[cracker_map.applied_cracks]
            crack_value(
                cracker_map.head_values,
                cracker_map.rowids,
                cracker_map.index,
                pivot,
                counters,
                extra_payload=cracker_map.tail_values,
            )
            cracker_map.applied_cracks += 1

    def _record_crack(self, pivot: float) -> None:
        if pivot not in self.crack_history:
            self.crack_history.append(pivot)

    # -- the select/project operator ----------------------------------------------------

    def select_project(
        self,
        low: Optional[float],
        high: Optional[float],
        projections: Sequence[str],
        counters: Optional[CostCounters] = None,
        extra_predicates: Optional[
            Mapping[str, Tuple[Optional[float], Optional[float]]]
        ] = None,
    ) -> Dict[str, np.ndarray]:
        """Select on the head attribute, refine and project sideways.

        ``extra_predicates`` maps other attributes to ``(low, high)``
        half-open ranges the qualifying rows must also satisfy; they are
        checked on the sideways maps of those attributes, so neither
        refinement nor projection needs random access into the base table.
        Returns a dict column-name -> values of qualifying rows for every
        name in ``projections``, plus the special key ``"__rowids__"`` with
        the base row positions.  All returned arrays are aligned with each
        other.
        """
        self.queries_processed += 1
        requested = list(projections)
        refinements = {
            attribute: bounds
            for attribute, bounds in (extra_predicates or {}).items()
            if attribute != self.head
        }
        tails = [
            name for name in dict.fromkeys(list(refinements) + requested)
            if name != self.head
        ]
        if not tails:
            # a map is still needed to answer the selection; use any other
            # attribute of the table (or fall back to a head-only map).
            others = [n for n in self.table.column_names if n != self.head]
            tails = [others[0]] if others else [self.head]

        # record the cracks this query introduces (for later alignment)
        if low is not None:
            self._record_crack(low)
        if high is not None:
            self._record_crack(high)

        segments: Dict[str, np.ndarray] = {}
        rowids: Optional[np.ndarray] = None
        for tail in tails:
            cracker_map = self.get_map(tail, counters)
            start, end = crack_range(
                cracker_map.head_values,
                cracker_map.rowids,
                cracker_map.index,
                low,
                high,
                counters,
                extra_payload=cracker_map.tail_values,
            )
            if counters is not None:
                counters.record_scan(max(0, end - start))
            segments[tail] = cracker_map.tail_values[start:end]
            if rowids is None:
                rowids = cracker_map.rowids[start:end]
                segments[self.head] = cracker_map.head_values[start:end]

        # the segments are views into the maps, which the next crack
        # permutes: the fancy index below (or the copy) detaches the answer
        keep = np.ones(len(rowids), dtype=bool) if refinements else slice(None)
        for attribute, (attr_low, attr_high) in refinements.items():
            values = segments[attribute]
            if attr_low is not None:
                keep &= values >= attr_low
            if attr_high is not None:
                keep &= values < attr_high
            if counters is not None:
                counters.record_comparisons(len(values))

        result = {name: segments[name][keep].copy() for name in requested}
        result["__rowids__"] = rowids[keep].copy()
        return result

    # -- inspection ---------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total auxiliary storage held by all materialised maps."""
        return sum(m.nbytes for m in self.maps.values())

    def map_names(self) -> List[str]:
        """Tail attributes for which a map is currently materialised."""
        return sorted(self.maps)

    def check_invariants(self) -> None:
        """Verify alignment and content preservation of every map (tests)."""
        base_head = self.table.column(self.head).values
        for cracker_map in self.maps.values():
            cracker_map.index.check_invariants()
            base_tail = self.table.column(cracker_map.tail_name).values
            assert np.array_equal(
                cracker_map.head_values, base_head[cracker_map.rowids]
            ), f"map {cracker_map.tail_name}: head values misaligned with rowids"
            assert np.array_equal(
                cracker_map.tail_values, base_tail[cracker_map.rowids]
            ), f"map {cracker_map.tail_name}: tail values misaligned with rowids"
        # all fully-aligned maps must share the same physical row order
        aligned = [
            m for m in self.maps.values()
            if m.applied_cracks == len(self.crack_history)
        ]
        for first, second in zip(aligned, aligned[1:]):
            assert np.array_equal(first.rowids, second.rowids), (
                "aligned cracker maps diverged in row order"
            )
