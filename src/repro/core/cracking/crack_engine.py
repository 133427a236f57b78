"""Physical cracking kernels: crack-in-two, crack-in-three and the ripples.

The crack functions combine the bulk partitioning primitives of
:mod:`repro.columnstore.bulk` with the bookkeeping of
:class:`~repro.core.cracking.cracker_index.CrackerIndex`.  They are shared by
plain cracking, stochastic cracking, the update machinery, sideways cracking
and the hybrid algorithms (which crack their initial partitions).  The two
ripple kernels at the end physically merge one pending insert or delete into
a cracked column at a cost of one relocated element per later piece.

``rowids`` is the aligned row-identifier array of the cracker column;
``extra_payload`` is an optional additional aligned array (the dragged tail
attribute of a sideways cracker map) permuted identically.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analysis_tools.guards import charges, typed_kernel
from repro.columnstore.bulk import (
    binary_search_count,
    lower_bound,
    partition_three_way,
    partition_two_way,
    stable_sort_segment,
)
from repro.core.cracking.cracker_index import CrackerIndex
from repro.cost.counters import CostCounters


@typed_kernel(buffers={"rowids": "integer?", "extra_payload": "numeric?"})
def _payloads(rowids, extra_payload):
    payloads = []
    if rowids is not None:
        payloads.append(rowids)
    if extra_payload is not None:
        payloads.append(extra_payload)
    return payloads or None


@typed_kernel(buffers={"values": "numeric", "rowids": "integer?",
                       "extra_payload": "numeric?"},
              mutates=("values", "rowids", "extra_payload"))
@charges("comparisons", "pieces")
def crack_value(
    values: np.ndarray,
    rowids: Optional[np.ndarray],
    index: CrackerIndex,
    pivot: float,
    counters: Optional[CostCounters] = None,
    sort_threshold: int = 0,
    extra_payload: Optional[np.ndarray] = None,
) -> int:
    """Ensure a boundary for ``pivot`` exists; return its position.

    If ``pivot`` is already a boundary the lookup is free of data movement.
    Otherwise the piece containing ``pivot`` is located and physically
    partitioned around ``pivot`` (crack-in-two).  When the piece is already
    sorted, a binary search replaces the physical crack.  When the piece is
    smaller than ``sort_threshold`` it is sorted outright (and marked so),
    which accelerates convergence at a small extra cost — the
    "sort small pieces" optimisation discussed for the hybrid variants.
    """
    payload = _payloads(rowids, extra_payload)
    existing = index.position_of(pivot)
    if existing is not None:
        if counters is not None:
            counters.record_comparisons(binary_search_count(index.piece_count))
        return existing

    piece = index.piece_for_value(pivot)
    if counters is not None:
        counters.record_comparisons(binary_search_count(index.piece_count))

    if piece.sorted:
        # no data movement needed: binary search inside the sorted piece
        split = piece.start + lower_bound(values[piece.start : piece.end], pivot)
        if counters is not None:
            counters.record_comparisons(binary_search_count(piece.size))
        index.add_boundary(pivot, split, left_sorted=True, right_sorted=True)
        if counters is not None:
            counters.record_pieces(1)
        return split

    if 0 < sort_threshold and piece.size <= sort_threshold and piece.size > 1:
        stable_sort_segment(values, piece.start, piece.end, counters, payload=payload)
        split = piece.start + lower_bound(values[piece.start : piece.end], pivot)
        index.add_boundary(pivot, split, left_sorted=True, right_sorted=True)
        if counters is not None:
            counters.record_pieces(1)
        return split

    split = partition_two_way(
        values, piece.start, piece.end, pivot, counters, payload=payload
    )
    index.add_boundary(pivot, split)
    if counters is not None:
        counters.record_pieces(1)
    return split


@typed_kernel(buffers={"values": "numeric", "rowids": "integer?",
                       "extra_payload": "numeric?"},
              mutates=("values", "rowids", "extra_payload"))
@charges("comparisons", "pieces")
def crack_range(
    values: np.ndarray,
    rowids: Optional[np.ndarray],
    index: CrackerIndex,
    low: Optional[float],
    high: Optional[float],
    counters: Optional[CostCounters] = None,
    sort_threshold: int = 0,
    extra_payload: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Crack so that values in ``[low, high)`` occupy one contiguous region.

    Returns ``(start, end)`` positions of the qualifying region.  Uses
    crack-in-three when both bounds fall inside the same (unsorted,
    un-cracked-at-either-bound) piece, crack-in-two otherwise, mirroring the
    original algorithm.
    """
    if low is not None and high is not None and high < low:
        raise ValueError(f"empty range: high ({high}) < low ({low})")
    payload = _payloads(rowids, extra_payload)

    if low is None and high is None:
        return 0, index.size
    if low is None:
        end = crack_value(
            values, rowids, index, high, counters, sort_threshold, extra_payload
        )
        return 0, end
    if high is None:
        start = crack_value(
            values, rowids, index, low, counters, sort_threshold, extra_payload
        )
        return start, index.size

    low_known = index.position_of(low) is not None
    high_known = index.position_of(high) is not None

    if not low_known and not high_known:
        low_piece = index.piece_for_value(low)
        high_piece = index.piece_for_value(high)
        same_piece = (
            low_piece.start == high_piece.start and low_piece.end == high_piece.end
        )
        if same_piece and not low_piece.sorted and not (
            0 < sort_threshold and low_piece.size <= sort_threshold
        ):
            # charge the piece lookup before the physical partition (as
            # crack_value does) so mid-query counter snapshots attribute the
            # navigation cost to navigation, not to data movement
            if counters is not None:
                counters.record_comparisons(binary_search_count(index.piece_count))
            split_low, split_high = partition_three_way(
                values, low_piece.start, low_piece.end, low, high, counters,
                payload=payload,
            )
            if counters is not None:
                counters.record_pieces(2)
            index.add_boundary(low, split_low)
            index.add_boundary(high, split_high)
            return split_low, split_high

    start = crack_value(
        values, rowids, index, low, counters, sort_threshold, extra_payload
    )
    end = crack_value(
        values, rowids, index, high, counters, sort_threshold, extra_payload
    )
    return start, end


@typed_kernel(buffers={"boundary_positions": "int64"})
def _piece_edges(boundary_positions: np.ndarray, length: int) -> np.ndarray:
    """The distinct piece edges a ripple walks, ascending, column end last.

    ``boundary_positions`` is non-decreasing and bounded by ``length`` (a
    :class:`CrackerIndex` invariant; repeats delimit empty pieces), so one
    comparison of neighbours finds the repeats — no sort, no hash table.
    """
    edges = np.append(boundary_positions, length)
    first_of_run = np.empty(len(edges), dtype=bool)
    first_of_run[0] = True
    np.not_equal(edges[1:], edges[:-1], out=first_of_run[1:])
    return edges[first_of_run]


@typed_kernel(buffers={"values": "numeric", "rowids": "int64",
                       "boundary_positions": "int64"},
              mutates=("values", "rowids"))
@charges("movements", "random_accesses")
def ripple_insert_value(
    values: np.ndarray,
    rowids: np.ndarray,
    length: int,
    value: float,
    rowid: int,
    boundary_positions: np.ndarray,
    counters: Optional[CostCounters],
) -> None:
    """Ripple one value into ``values[:length]``, one move per later piece.

    ``boundary_positions`` are the boundaries whose value lies strictly
    above ``value``, non-decreasing — the pieces the hole ripples through,
    right to left, starting from the spare slot at ``values[length]``: each
    non-empty piece hands its first element to the edge behind it.  The
    per-piece walk is expressed as one gather/scatter over the move chain:
    the chain positions are pairwise distinct, so every source is read
    before any step would overwrite it, which is exactly what fancy
    indexing (gather first, then scatter) computes.
    """
    edges = _piece_edges(boundary_positions, length)
    starts, destinations = edges[:-1], edges[1:]
    values[destinations] = values[starts]
    rowids[destinations] = rowids[starts]
    hole = int(edges[0])
    values[hole] = value
    rowids[hole] = rowid
    moves = len(starts)
    if counters is not None:
        counters.record_move(moves + 1)
        counters.record_random_access(moves + 1)


@typed_kernel(buffers={"values": "numeric", "rowids": "int64",
                       "boundary_positions": "int64"},
              mutates=("values", "rowids"))
@charges("movements", "random_accesses")
def ripple_delete_position(
    values: np.ndarray,
    rowids: np.ndarray,
    position: int,
    length: int,
    boundary_positions: np.ndarray,
    counters: Optional[CostCounters],
) -> int:
    """Close the hole at ``position`` by rippling it right, piece by piece.

    Each piece from the target on (delimited by ``boundary_positions``, the
    boundaries strictly above the deleted value — non-decreasing, and all
    behind ``position`` — plus the column end) donates its last element
    into the hole; the hole ends up at ``length - 1``.  Vectorized as one
    gather/scatter over the chain of per-piece last positions, which are
    pairwise distinct and ascending.  Returns the number of moves performed.
    """
    piece_lasts = _piece_edges(boundary_positions, length) - 1
    # a piece whose last element *is* the hole donates nothing (only
    # possible for the target piece itself, the first of the chain)
    first_last = int(piece_lasts[0])
    if first_last == position:
        piece_lasts = piece_lasts[1:]
    destinations = np.empty_like(piece_lasts)
    destinations[:1] = position
    destinations[1:] = piece_lasts[:-1]
    values[destinations] = values[piece_lasts]
    rowids[destinations] = rowids[piece_lasts]
    moves = len(piece_lasts)
    if counters is not None:
        counters.record_move(moves)
        counters.record_random_access(moves)
    return moves
