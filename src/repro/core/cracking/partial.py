"""Partial (storage-bounded) cracking.

Sideways/partial cracking (Idreos et al., SIGMOD 2009) observes that the
auxiliary cracking structures need not be complete copies of the base
columns: they can be materialised *partially*, only for the value ranges the
workload actually touches, and dropped again under storage pressure.

:class:`PartialCrackedColumn` models this: the value domain is split into a
configurable number of *fragments*; a fragment's cracker structure (its slice
of the column, plus row identifiers) is materialised the first time a query
touches its value range, is cracked independently from then on, and is
evicted (least-recently-used first) when the total auxiliary storage would
exceed the configured :class:`~repro.columnstore.storage.StorageBudget`.
Queries over ranges whose fragments cannot be materialised (budget too
small) fall back to scanning the base column for that part of the range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.columnstore.bulk import range_mask
from repro.columnstore.column import Column
from repro.columnstore.storage import StorageBudget
from repro.core.cracking.cracked_column import CrackedColumn
from repro.cost.counters import CostCounters


@dataclass
class _Fragment:
    """A materialised cracker structure for one value-range fragment."""

    fragment_index: int
    cracked: CrackedColumn
    rowids: np.ndarray  # base positions of the rows in this fragment
    last_used: int = 0

    @property
    def nbytes(self) -> int:
        return self.cracked.nbytes + self.rowids.nbytes


def _fragment_edges(base: np.ndarray, count: int) -> List[Optional[float]]:
    """The ``count + 1`` edges of ``count`` equal-width fragments, keys of the
    column's type: fragment ``i`` holds ``[edges[i], edges[i + 1])``, the
    first edge is the column's exact minimum and the last is open (None).
    An integer column's inner edges are rounded up exactly — ``v >= e``
    holds for the same integers as ``v >= ceil(e)`` — where a float one's
    keep the float width."""
    lowest, highest = base.min().item(), base.max().item()
    span = (highest - lowest) or 1
    if base.dtype.kind in "iu":
        inner = [lowest - (-index * span // count) for index in range(1, count)]
    else:
        inner = [lowest + index * (span / count) for index in range(1, count)]
    return [lowest, *inner, None]


class PartialCrackedColumn:
    """Cracking with partially materialised, storage-bounded structures."""

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        budget: Optional[StorageBudget] = None,
        fragments: int = 16,
        name: str = "",
    ) -> None:
        if fragments < 1:
            raise ValueError("fragments must be >= 1")
        base = column.values if isinstance(column, Column) else np.asarray(column)
        if len(base) == 0:
            raise ValueError("cannot build a partial cracked column over an empty column")
        self.name = name or (column.name if isinstance(column, Column) else "")
        self._base = base
        self.budget = budget or StorageBudget(limit_bytes=None)
        self.fragment_count = int(fragments)
        self._edges = _fragment_edges(base, self.fragment_count)
        self._fragments: Dict[int, _Fragment] = {}
        self.queries_processed = 0
        self.evictions = 0
        self.fallback_scans = 0

    def __len__(self) -> int:
        return len(self._base)

    @property
    def materialised_fragments(self) -> int:
        """Number of fragments currently materialised."""
        return len(self._fragments)

    @property
    def nbytes(self) -> int:
        """Auxiliary storage currently held by all materialised fragments."""
        return sum(f.nbytes for f in self._fragments.values())

    # -- materialisation and eviction ---------------------------------------------------

    def _expected_fragment_bytes(self) -> int:
        """Estimated footprint of one fragment (used to avoid futile scans)."""
        expected_rows = max(1, len(self._base) // self.fragment_count)
        return int(expected_rows * (self._base.itemsize + 16))

    def _materialise_fragment(
        self, index: int, counters: Optional[CostCounters]
    ) -> Optional[_Fragment]:
        """Scan the base column and build the fragment's cracker structure.

        Returns ``None`` when the fragment does not fit in the budget even
        after evicting everything else.  When the budget is too small to
        ever hold a typical fragment, the scan is skipped entirely — the
        caller falls back to scanning the base column anyway, so paying an
        additional build scan every query would be pure waste.
        """
        if (
            self.budget.limit_bytes is not None
            and self.budget.limit_bytes < self._expected_fragment_bytes()
        ):
            return None
        mask = range_mask(self._base, self._edges[index], self._edges[index + 1])
        if counters is not None:
            counters.record_scan(len(self._base))
            counters.record_comparisons(2 * len(self._base))
        rowids = np.flatnonzero(mask).astype(np.int64)
        values = self._base[rowids]
        needed = int(values.nbytes + 2 * rowids.nbytes)

        while not self.budget.can_allocate(needed) and self._fragments:
            self._evict_one(exclude=index)
        if not self.budget.can_allocate(needed):
            return None

        cracked = CrackedColumn(values, lazy_copy=False)
        fragment = _Fragment(
            fragment_index=index, cracked=cracked, rowids=rowids,
            last_used=self.queries_processed,
        )
        self.budget.reserve(needed)
        if counters is not None:
            counters.record_allocation(needed)
            counters.record_move(len(values))
            counters.record_pieces(1)
        self._fragments[index] = fragment
        return fragment

    def _evict_one(self, exclude: Optional[int] = None) -> None:
        """Drop the least-recently-used fragment (except ``exclude``)."""
        candidates = [f for i, f in self._fragments.items() if i != exclude]
        if not candidates:
            return
        victim = min(candidates, key=lambda f: f.last_used)
        self.budget.release(victim.nbytes)
        del self._fragments[victim.fragment_index]
        self.evictions += 1

    # -- the select operator -----------------------------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Base positions of rows with ``low <= value < high``.

        Touched fragments are materialised (subject to the budget) and
        cracked; fragments that cannot be materialised are answered with a
        base-column scan restricted to their value range.
        """
        self.queries_processed += 1
        results: List[np.ndarray] = []
        fallback_ranges: List[Tuple[float, float]] = []
        if low is not None and high is not None and high <= low:
            return np.empty(0, dtype=np.int64)
        edges = self._edges
        for index in range(self.fragment_count):
            start, stop = edges[index], edges[index + 1]
            if (high is not None and start >= high) or (
                    low is not None and stop is not None and stop <= low):
                continue
            effective_low = start if low is None else max(low, start)
            effective_high = (high if stop is None
                              else stop if high is None else min(high, stop))
            fragment = self._fragments.get(index)
            if fragment is None:
                fragment = self._materialise_fragment(index, counters)
            if fragment is None:
                # budget too small: remember the range and scan the base
                # column once for all such fragments below
                fallback_ranges.append((effective_low, effective_high))
                continue
            fragment.last_used = self.queries_processed
            local_positions = fragment.cracked.search(
                effective_low, effective_high, counters
            )
            results.append(fragment.rowids[local_positions])
        if fallback_ranges:
            # one shared scan answers every non-materialisable fragment range
            self.fallback_scans += 1
            base = self._base  # hoisted out of the range loop (PF002)
            mask = np.zeros(len(base), dtype=bool)
            for effective_low, effective_high in fallback_ranges:
                mask |= range_mask(base, effective_low, effective_high)
            if counters is not None:
                counters.record_scan(len(base))
                counters.record_comparisons(2 * len(base))
            results.append(np.flatnonzero(mask).astype(np.int64))
        if not results:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(results)

    # -- verification ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Budget accounting and fragment content checks (test helper)."""
        total = sum(f.nbytes for f in self._fragments.values())
        assert total == self.budget.used_bytes, (
            f"budget accounting drifted: fragments hold {total} bytes, "
            f"budget thinks {self.budget.used_bytes}"
        )
        if self.budget.limit_bytes is not None:
            assert total <= self.budget.limit_bytes
        for fragment in self._fragments.values():
            fragment.cracked.check_invariants()
            values = self._base[fragment.rowids]
            assert np.array_equal(
                np.sort(values), np.sort(fragment.cracked.values)
            ), "fragment content does not match base column slice"
