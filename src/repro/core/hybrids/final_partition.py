"""The final partition of the hybrid algorithms.

Every query moves its qualifying (not-yet-merged) tuples out of the initial
partitions and into the final partition as one new *piece*.  Because a key
range is extracted at most once, the pieces of the final partition are
value-disjoint.  The second design axis of the hybrids is how much order
each piece receives:

* ``mode="crack"`` — the piece keeps the order it arrived in and is cracked
  further by later queries that partially overlap it (hybrid crack-crack);
* ``mode="sort"``  — the piece is sorted on arrival, so later overlapping
  queries only need binary searches (hybrid crack-sort / sort-sort).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis_tools.guards import charges
from repro.columnstore.bulk import binary_search_count, lower_bound
from repro.core.cracking.cracker_index import CrackerIndex
from repro.core.cracking.crack_engine import crack_range
from repro.cost.counters import CostCounters


@dataclass
class _FinalPiece:
    """One value-disjoint piece of the final partition."""

    low: float
    high: float
    values: np.ndarray
    rowids: np.ndarray
    index: Optional[CrackerIndex]  # present for mode="crack"
    sorted: bool

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes + self.rowids.nbytes)


class FinalPartition:
    """Collection of value-disjoint pieces with a configurable organisation."""

    def __init__(self, mode: str = "sort") -> None:
        if mode not in ("crack", "sort"):
            raise ValueError(f"unknown final partition mode {mode!r}")
        self.mode = mode
        self.pieces: List[_FinalPiece] = []

    def __len__(self) -> int:
        return sum(len(piece) for piece in self.pieces)

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    @property
    def nbytes(self) -> int:
        return sum(piece.nbytes for piece in self.pieces)

    # -- adding merged pieces -----------------------------------------------------

    @charges("comparisons", "movements", "allocations", "pieces")
    def add_piece(
        self,
        low: float,
        high: float,
        values: np.ndarray,
        rowids: np.ndarray,
        counters: Optional[CostCounters] = None,
    ) -> None:
        """Add the tuples extracted for key range [low, high) as a new piece."""
        values = np.asarray(values)
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(values) != len(rowids):
            raise ValueError("values and rowids must be aligned")
        if len(values) == 0:
            return
        if self.mode == "sort":
            order = np.argsort(values, kind="stable")
            values = values[order]
            rowids = rowids[order]
            if counters is not None:
                n = len(values)
                counters.record_comparisons(int(n * max(1.0, np.log2(max(n, 2)))))
                counters.record_move(n)
            piece = _FinalPiece(low, high, values, rowids, index=None, sorted=True)
        else:  # crack: keep arrival order, crack lazily
            values = values.copy()
            rowids = rowids.copy()
            if counters is not None:
                counters.record_move(len(values))
            index = CrackerIndex(len(values))
            piece = _FinalPiece(low, high, values, rowids, index=index, sorted=False)
        if counters is not None:
            counters.record_allocation(piece.nbytes)
            counters.record_pieces(1)
        # keep pieces ordered by their key range for deterministic iteration
        insert_at = 0
        for insert_at, existing in enumerate(self.pieces):
            if existing.low > low:
                break
        else:
            insert_at = len(self.pieces)
        # ordering the piece list is bookkeeping, not tuple movement
        self.pieces.insert(insert_at, piece)  # reproperf: ignore[PF003]

    # -- lookups -------------------------------------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Row ids with ``low <= value < high`` across all pieces.

        Pieces fully inside the query range are taken wholesale; partially
        overlapping pieces are narrowed according to the partition mode
        (binary search when sorted, cracking otherwise).
        """
        results: List[np.ndarray] = []
        for piece in self.pieces:
            if counters is not None:
                counters.record_comparisons(2)
            if high is not None and piece.low >= high:
                continue
            if low is not None and piece.high <= low:
                continue
            fully_inside = (low is None or piece.low >= low) and (
                high is None or piece.high <= high
            )
            if fully_inside:
                if counters is not None:
                    counters.record_scan(len(piece))
                results.append(piece.rowids)
                continue
            results.append(self._search_piece(piece, low, high, counters))
        if not results:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(results)

    def _search_piece(
        self,
        piece: _FinalPiece,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters],
    ) -> np.ndarray:
        if piece.sorted:
            n = len(piece.values)
            begin = 0 if low is None else lower_bound(piece.values, low)
            end = n if high is None else lower_bound(piece.values, high)
            end = max(end, begin)
            if counters is not None:
                counters.record_comparisons(2 * binary_search_count(n))
                counters.record_scan(end - begin)
            return piece.rowids[begin:end]
        # crack piece: crack it further (refining the final partition)
        start, end = crack_range(
            piece.values, piece.rowids, piece.index, low, high, counters
        )
        if counters is not None:
            counters.record_scan(max(0, end - start))
        return piece.rowids[start:end]

    # -- verification -----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Value-disjointness and per-piece bound checks (test helper)."""
        ordered = sorted(self.pieces, key=lambda piece: piece.low)
        for first, second in zip(ordered, ordered[1:]):
            assert first.high <= second.low, f"pieces overlap in [{second.low}, {first.high})"
        for piece in self.pieces:
            if len(piece.values) == 0:
                continue
            assert piece.values.min() >= piece.low or np.isneginf(piece.low)
            assert piece.values.max() < piece.high or np.isposinf(piece.high)
            if piece.sorted and len(piece.values) > 1:
                assert bool(np.all(piece.values[:-1] <= piece.values[1:]))
            if piece.index is not None:
                piece.index.check_invariants()
