"""Physical cracking kernels: crack-in-two, crack-in-three and the ripples.

The crack functions combine the bulk partitioning primitives of
:mod:`repro.columnstore.bulk` with the bookkeeping of
:class:`~repro.core.cracking.cracker_index.CrackerIndex`.  They are shared by
plain cracking, stochastic cracking, the update machinery, sideways cracking
and the hybrid algorithms (which crack their initial partitions).
:func:`crack_cold` makes a column's first crack while building its cracker
arrays from the base.  :func:`crack_many` answers a batch of range
selections with one pass over the pieces they touch, exactly as the same
:func:`crack_range` calls in turn would.  The two ripple kernels at the end
physically merge one pending insert or delete into a cracked column at a
cost of one relocated element per later piece.

``rowids`` is the aligned row-identifier array of the cracker column;
``extra_payload`` is an optional additional aligned array (the dragged tail
attribute of a sideways cracker map) permuted identically.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis_tools.guards import typed_kernel
from repro.columnstore.bulk import (
    binary_search_count,
    binary_search_counts,
    partition_copy,
    partition_three_way,
    partition_two_way,
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


def check_range(low: Optional[float], high: Optional[float]) -> None:
    """Raise ``ValueError`` for an inverted range (``None`` is unbounded)."""
    if low is not None and high is not None and high < low:
        raise ValueError(f"empty range: high ({high}) < low ({low})")


def check_ranges(ranges: Sequence[Tuple[Optional[float], Optional[float]]]) -> None:
    """:func:`check_range` of every range of a batch, before anything is
    cracked."""
    for low, high in ranges:
        if low is not None and high is not None and high < low:
            break
    else:
        return
    check_range(low, high)


@typed_kernel(buffers={"values": "numeric", "rowids": "integer?",
                       "extra_payload": "numeric?"},
              mutates=("values", "rowids", "extra_payload"))
def _crack_in_two(
    values: np.ndarray,
    rowids: Optional[np.ndarray],
    index: CrackerIndex,
    pivot: float,
    located: Tuple[int, int, int],
    counters: Optional[CostCounters],
    extra_payload: Optional[np.ndarray],
) -> int:
    """Crack-in-two at ``pivot``, which ``located`` places as
    :meth:`CrackerIndex.lookup` does; return the boundary's position.

    Navigation is charged as a binary search over the pieces of the moment;
    a known boundary moves nothing, any other pivot partitions its piece.
    """
    slot, start, end = located
    if counters is not None:
        counters.record_comparisons(binary_search_count(index.piece_count))
    if slot < 0:
        return start
    split = partition_two_way(
        values, start, end, pivot, counters,
        payload=_payloads(rowids, extra_payload),
    )
    index.add_boundary(pivot, split, slot)
    if counters is not None:
        counters.record_pieces(1)
    return split


@typed_kernel(buffers={"values": "numeric", "rowids": "integer?",
                       "extra_payload": "numeric?"},
              mutates=("values", "rowids", "extra_payload"))
def crack_value(
    values: np.ndarray,
    rowids: Optional[np.ndarray],
    index: CrackerIndex,
    pivot: float,
    counters: Optional[CostCounters] = None,
    extra_payload: Optional[np.ndarray] = None,
) -> int:
    """Ensure a boundary for ``pivot`` exists; return its position.

    If ``pivot`` is already a boundary the lookup is free of data movement.
    Otherwise the piece containing ``pivot`` is physically partitioned
    around ``pivot`` (crack-in-two).  One bisect either way.
    """
    return _crack_in_two(values, rowids, index, pivot, index.lookup(pivot),
                         counters, extra_payload)


@typed_kernel(buffers={"values": "numeric", "rowids": "integer?",
                       "extra_payload": "numeric?"},
              mutates=("values", "rowids", "extra_payload"))
def crack_range(
    values: np.ndarray,
    rowids: Optional[np.ndarray],
    index: CrackerIndex,
    low: Optional[float],
    high: Optional[float],
    counters: Optional[CostCounters] = None,
    extra_payload: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Crack so that values in ``[low, high)`` occupy one contiguous region.

    Returns ``(start, end)`` positions of the qualifying region.  Uses
    crack-in-three when both bounds fall inside the same
    (un-cracked-at-either-bound) piece, crack-in-two otherwise, mirroring
    the original algorithm.  Each bound is looked up once.
    """
    check_range(low, high)

    if low is None and high is None:
        return 0, index.size
    if low is None:
        return 0, crack_value(values, rowids, index, high, counters, extra_payload)
    if high is None:
        return crack_value(values, rowids, index, low, counters, extra_payload), index.size

    low_slot, low_start, low_end = low_at = index.lookup(low)
    high_slot, high_start, high_end = high_at = index.lookup(high)
    if low_slot >= 0 and high_slot >= 0:
        # one piece is one span, not one slot: two empty pieces at the same
        # position are cracked in three like a single piece
        if low_start == high_start and low_end == high_end:
            # charge the piece lookup before the physical partition (as
            # crack-in-two does) so mid-query counter snapshots attribute
            # the navigation cost to navigation, not to data movement
            if counters is not None:
                counters.record_comparisons(binary_search_count(index.piece_count))
            split_low, split_high = partition_three_way(
                values, low_start, low_end, low, high, counters,
                payload=_payloads(rowids, extra_payload),
            )
            if counters is not None:
                counters.record_pieces(2)
            index.add_boundary(low, split_low, low_slot)
            # a high bound equal to the low one is now that boundary
            index.add_boundary(high, split_high, high_slot + (low < high))
            return split_low, split_high
        # the low crack inserts its boundary ahead of the high bound's slot
        high_at = high_slot + 1, high_start, high_end

    start = _crack_in_two(values, rowids, index, low, low_at, counters, extra_payload)
    end = _crack_in_two(values, rowids, index, high, high_at, counters, extra_payload)
    return start, end


@typed_kernel(buffers={"base": "numeric"})
def crack_cold(
    base: np.ndarray,
    index: CrackerIndex,
    low: Optional[float],
    high: Optional[float],
    counters: Optional[CostCounters] = None,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """The first crack of a column that has no cracker arrays yet, made
    while building them: ``(values, order, start, end)``.

    ``index`` is the column's one-piece index and at least one bound is
    given.  ``values`` is the cracker column, ``order`` the stable grouping
    permutation that built it from ``base`` (the row identifiers, numbered
    from 0) and ``[start, end)`` the qualifying region.  Arrays, index and
    charges are what copying ``base``, numbering its rows and
    :func:`crack_range` on the copy give: one piece to navigate,
    crack-in-three for two bounds, crack-in-two for one.  ``base`` is only
    read.
    """
    check_range(low, high)
    if counters is not None:
        counters.record_comparisons(binary_search_count(index.piece_count))
    # every key of a one-piece index falls in slot 0
    if low is None or high is None:
        pivot = high if low is None else low
        values, order, split, _ = partition_copy(base, pivot, None, counters)
        index.add_boundary(pivot, split, 0)
        if counters is not None:
            counters.record_pieces(1)
        return (values, order, 0, split) if low is None else (values, order, split, index.size)
    values, order, split_low, split_high = partition_copy(base, low, high, counters)
    if counters is not None:
        counters.record_pieces(2)
    index.add_boundary(low, split_low, 0)
    # a high bound equal to the low one is now that boundary
    index.add_boundary(high, split_high, int(low < high))
    return values, order, split_low, split_high


# -- a batch of selections in one pass ---------------------------------------------
#
# k range selections answered one after the other crack each piece they touch
# once per new bound.  Both partition kernels are stable, so the pieces of a
# pre-batch piece always hold its elements in pre-batch order, grouped by
# which of the bounds cracked so far they lie between; and a boundary's
# position is a count (the elements below its value).  Cracking a piece at
# all the batch's new bounds with one stable sort on that group number
# therefore leaves the arrays and the index the k cracks leave, and every
# boundary's position can be read off the group sizes.  What each query saw
# and paid at its turn is recomputed from the same numbers.

#: the per-query charge columns of a batched crack (:func:`charge_batch`)
CHARGE_COLUMNS = ("scans", "moves", "comparisons", "pieces", "allocations")


class BatchBounds(NamedTuple):
    """Where the bounds of a batch fall before it runs (:func:`locate_bounds`)."""

    ranges: List[Tuple[Optional[float], Optional[float]]]
    #: the distinct bounds, ascending
    keys: List[float]
    #: per query, its low / high bound as an index into ``keys`` (-1: None)
    low_keys: np.ndarray
    high_keys: np.ndarray
    #: per key, the first query it bounds
    first_query: np.ndarray
    #: per key, as :meth:`CrackerIndex.locate` gives them
    slots: np.ndarray
    known: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    #: elements the pass moves: every piece holding a new bound, once
    work: int


def locate_bounds(index: CrackerIndex,
                  ranges: Sequence[Tuple[Optional[float], Optional[float]]]
                  ) -> BatchBounds:
    """One bisect per distinct bound of ``ranges`` (valid, typed ranges)."""
    first: Dict[object, int] = {}
    for query, (low, high) in enumerate(ranges):
        first.setdefault(low, query)
        first.setdefault(high, query)
    first.pop(None, None)
    keys = sorted(first)
    number: Dict[object, int] = {key: j for j, key in enumerate(keys)}
    number[None] = -1
    slots, known, starts, ends = index.locate(keys)
    new = ~known
    new_slots = slots[new]
    first_of_piece = np.ones(len(new_slots), dtype=bool)
    np.not_equal(new_slots[1:], new_slots[:-1], out=first_of_piece[1:])
    return BatchBounds(
        ranges=list(ranges), keys=keys,
        low_keys=np.array([number[low] for low, _ in ranges], dtype=np.int64),
        high_keys=np.array([number[high] for _, high in ranges], dtype=np.int64),
        first_query=np.array([first[key] for key in keys], dtype=np.int64),
        slots=slots, known=known, starts=starts, ends=ends,
        work=int((ends[new] - starts[new])[first_of_piece].sum()),
    )


def _at(array: np.ndarray, indices: np.ndarray, default) -> np.ndarray:
    """``array[indices]``, ``default`` where an index is -1."""
    return np.where(indices >= 0, array.take(indices, mode="clip"), default) \
        if len(array) else np.full(len(indices), default, dtype=np.int64)


@typed_kernel(buffers={"values": "numeric", "rowids": "integer"},
              mutates=("values", "rowids"))
def crack_many(
    values: np.ndarray,
    rowids: np.ndarray,
    index: CrackerIndex,
    bounds: BatchBounds,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Crack for every range of a batch at once: ``(answers, charges)``.

    Returns what ``crack_range`` followed by a gather of ``rowids`` gives
    for each range in turn, order included, and leaves ``values``,
    ``rowids`` and ``index`` as those k calls leave them.  ``charges`` has
    one row per query and the :data:`CHARGE_COLUMNS`: what the query's own
    crack and gather would have charged.  At query ``i`` a new bound's piece
    is bounded by its nearest neighbours among the pre-batch boundaries and
    the bounds of the queries before ``i``, all of whose final positions are
    known; navigation costs a binary search over the piece count of the
    moment, crack-in-two n/n/n (scans/moves/comparisons), crack-in-three
    n/n/2n.  Every range is valid (``low <= high``) and typed.

    A range that a later query splits again ends the pass in the later
    query's order; its answer is re-ordered by what it was at its own turn
    (the group under the bounds cracked by then, then the pre-batch
    position), which the pass knows for every element it moved.
    """
    size = index.size
    count = len(bounds.ranges)
    new = ~bounds.known
    new_keys = np.flatnonzero(new)
    # the new bounds (pivots), ascending, with their pre-batch pieces
    pivots = np.array(bounds.keys, dtype=values.dtype)[new_keys]
    turns = bounds.first_query[new_keys]
    slots = bounds.slots[new_keys]
    starts = bounds.starts[new_keys]
    ends = bounds.ends[new_keys]
    piece_count = index.piece_count

    # -- the pass: gather the touched pieces, one stable sort by group --------
    first_of_piece = np.ones(len(slots), dtype=bool)
    np.not_equal(slots[1:], slots[:-1], out=first_of_piece[1:])
    piece_of = np.cumsum(first_of_piece) - 1
    piece_sizes = (ends - starts)[first_of_piece]
    offsets = np.cumsum(piece_sizes) - piece_sizes
    moved = np.repeat(starts[first_of_piece] - offsets, piece_sizes) \
        + np.arange(piece_sizes.sum())
    gathered = values[moved]
    groups = np.searchsorted(pivots, gathered, side="right")
    below = np.cumsum(np.bincount(groups, minlength=len(pivots) + 1))[:-1]
    order = np.argsort(groups.astype(np.min_scalar_type(len(pivots))), kind="stable")
    del groups
    values[moved] = gathered[order]
    del gathered
    rowids[moved] = rowids[moved][order]
    positions = starts + below - offsets[piece_of]
    if len(new_keys):
        index.add_boundaries(slots, [bounds.keys[j] for j in new_keys.tolist()],
                             positions)

    # -- each query's region --------------------------------------------------
    key_positions = bounds.ends.copy()
    key_positions[new_keys] = positions
    low_keys, high_keys = bounds.low_keys, bounds.high_keys
    region_starts = _at(key_positions, low_keys, 0)
    region_ends = _at(key_positions, high_keys, size)

    # -- the piece each new bound cracked at its turn --------------------------
    lefts, rights = starts.copy(), ends.copy()
    crowded = np.bincount(piece_of)[piece_of] > 1
    if crowded.any():
        # pivots sharing a pre-batch piece: the nearest ones cracked at an
        # earlier turn bound it (cross-piece neighbours are clamped away)
        candidates = np.flatnonzero(crowded)
        cracked: List[int] = []
        waiting: List[int] = []
        turn = -1
        turn_of, placed = turns.tolist(), positions.tolist()
        for pivot in candidates[np.argsort(turns[candidates], kind="stable")].tolist():
            if turn_of[pivot] != turn:
                for earlier in waiting:
                    insort(cracked, earlier)
                waiting.clear()
                turn = turn_of[pivot]
            at = bisect_left(cracked, pivot)
            if at:
                lefts[pivot] = max(lefts[pivot], placed[cracked[at - 1]])
            if at < len(cracked):
                rights[pivot] = min(rights[pivot], placed[cracked[at]])
            waiting.append(pivot)
    sizes = rights - lefts

    # -- what each query charged -----------------------------------------------
    queries = np.arange(count)
    pivot_of = np.full(len(bounds.keys), -1, dtype=np.int64)
    pivot_of[new_keys] = np.arange(len(new_keys))
    low_pivots = _at(pivot_of, low_keys, -1)
    high_pivots = _at(pivot_of, high_keys, -1)
    low_new = (low_pivots >= 0) & (_at(turns, low_pivots, -1) == queries)
    high_new = (high_pivots >= 0) & (_at(turns, high_pivots, -1) == queries)
    low_sizes = np.where(low_new, _at(sizes, low_pivots, 0), 0)
    high_sizes = np.where(high_new, _at(sizes, high_pivots, 0), 0)
    # crack-in-three: both bounds new and in one piece of the moment
    same = low_new & high_new \
        & (_at(lefts, low_pivots, 0) == _at(lefts, high_pivots, 0)) \
        & (_at(rights, low_pivots, 0) == _at(rights, high_pivots, 0))
    pieces_then = piece_count + np.concatenate(
        ([0], np.cumsum(np.bincount(turns, minlength=count))[:-1]))
    both = (low_keys >= 0) & (high_keys >= 0)
    navigation = np.where(
        (low_keys >= 0) | (high_keys >= 0), binary_search_counts(pieces_then), 0)
    navigation += np.where(
        both & ~same, binary_search_counts(pieces_then + low_new), 0)
    cracked_sizes = np.where(same, low_sizes, low_sizes + high_sizes)
    charges = np.zeros((count, len(CHARGE_COLUMNS)), dtype=np.int64)
    charges[:, 0] = cracked_sizes + region_ends - region_starts
    charges[:, 1] = cracked_sizes
    charges[:, 2] = navigation + np.where(same, 2 * low_sizes, cracked_sizes)
    charges[:, 3] = np.where(same, 2, low_new.astype(np.int64) + high_new)

    # -- answers, re-ordered where a later query split the region ---------------
    cumulative_new = np.cumsum(new)
    first_inside = _at(cumulative_new, low_keys, 0)
    past_inside = _at(cumulative_new - new, high_keys, len(new_keys))
    latest = np.maximum.reduceat(
        np.append(turns, -1),
        np.column_stack((first_inside, past_inside)).ravel())[::2]
    resplit = (first_inside < past_inside) & (latest > queries)
    answers = []
    for query, start, end, again in zip(queries.tolist(), region_starts.tolist(),
                                        region_ends.tolist(), resplit.tolist()):
        if not again:
            answers.append(rowids[start:end].copy())
            continue
        origin = np.arange(start, end)
        first, last = np.searchsorted(moved, (start, end))
        origin[moved[first:last] - start] = moved[order[first:last]]
        group_then = np.searchsorted(pivots[turns <= query], values[start:end],
                                     side="right")
        answers.append(rowids[start:end][np.lexsort((origin, group_then))])
    return answers, charges


def charge_batch(counters_list: Sequence[Optional[CostCounters]],
                 charges: np.ndarray) -> None:
    """Record each row of a :func:`crack_many` charge matrix on its query's
    counters (``None`` records nothing)."""
    for counters, (scans, moves, comparisons, pieces, allocated) in zip(
            counters_list, charges.tolist()):
        if counters is not None:
            counters.record_scan(scans)
            counters.record_move(moves)
            counters.record_comparisons(comparisons)
            counters.record_pieces(pieces)
            counters.record_allocation(allocated)


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
