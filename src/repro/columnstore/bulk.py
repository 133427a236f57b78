"""Vectorised physical kernels (bulk processing primitives).

These are the low-level array kernels used by scans, cracking and adaptive
merging.  All of them operate on NumPy arrays, record their work on a
:class:`~repro.cost.counters.CostCounters` instance when one is provided, and
avoid per-element Python loops: this is the "bulk processing" pillar of the
column-store substrate the tutorial describes.

Physical reorganisation kernels (:func:`partition_two_way`,
:func:`partition_three_way`) rearrange a slice of an array **in place** and
return the resulting boundary positions, which is exactly what crack-in-two
and crack-in-three need; :func:`partition_copy` makes the same cut out of
place, into fresh arrays, which is how a cold cracker column is built.

The reorganisation kernels carry ``@typed_kernel`` declarations: their
buffer parameters are flat numeric ndarrays, checked by the type witness
(``REPRO_TYPE_WITNESS=1``).  The three partition kernels share one
grouping of single-pass mask selections (O(n)), not an argsort — the
produced layout is identical to a stable argsort of the group keys, without
the O(n log n) sort.  The one sort kernel that builds whole structures,
:func:`stable_sort_rows` (run generation, full-index builds), likewise
returns exactly a stable argsort's answer, sorting integer keys as packed
(value, position) words.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analysis_tools.guards import typed_kernel
from repro.cost.counters import CostCounters


def range_mask(
    values: np.ndarray,
    low: Optional[float],
    high: Optional[float],
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """Boolean mask of ``low <= v < high``; a ``None`` bound is unbounded.

    The half-open interval of the cracking literature; with bounds of the
    column's type it expresses every closed or open variant.
    """
    values = np.asarray(values)
    mask = np.ones(len(values), dtype=bool)
    comparisons = 0
    if low is not None:
        mask &= values >= low
        comparisons += len(values)
    if high is not None:
        mask &= values < high
        comparisons += len(values)
    if counters is not None:
        counters.record_scan(len(values))
        counters.record_comparisons(comparisons)
    return mask


def filter_range(
    values: np.ndarray,
    low: Optional[float],
    high: Optional[float],
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """Positions (indices into ``values``) whose value falls in the range."""
    return np.flatnonzero(range_mask(values, low, high, counters))


@typed_kernel(buffers={"values": "numeric"})
def lower_bound(values: np.ndarray, bound) -> int:
    """``np.searchsorted(values, bound)``: the position of the first element
    of sorted ``values`` at or above ``bound``, a bound of their column's type.

    ``searchsorted`` reads a Python int as an int64 array, where a comparison
    reads it as the other operand's type: a uint64 array would then be
    searched in float64 (inexact past 2**53) and a narrower one copied to
    int64 by every call.  A Python int is searched for as an element.
    """
    if isinstance(bound, int) and values.dtype.kind in "iu":
        bound = values.dtype.type(bound)
    return int(np.searchsorted(values, bound))


@typed_kernel(buffers={"payload": "numeric*?"})
def _payload_list(payload) -> list:
    """Normalise the ``payload`` argument to a list of aligned arrays."""
    if payload is None:
        return []
    if isinstance(payload, (list, tuple)):
        return [p for p in payload if p is not None]
    return [payload]


def _stable_grouping(
    segment: np.ndarray,
    low: float,
    high: Optional[float],
    counters: Optional[CostCounters],
) -> Tuple[np.ndarray, int, int]:
    """The stable permutation grouping ``segment`` into ``< low | [low, high)
    | >= high`` (``< low | >= low`` when ``high`` is None), with the sizes
    of the groups before the last as ``(order, below, below + middle)``.

    One comparison pass per pivot and one ``nonzero`` selection per group,
    in O(n): qualifying positions first, original order kept within each
    group, which is exactly a stable argsort of the group keys.  Charges the
    scan, the comparisons and the one move of every element that applying
    the permutation costs.
    """
    below_mask = segment < low
    below = below_mask.nonzero()[0]
    if high is None:
        order = np.concatenate((below, (~below_mask).nonzero()[0]))
        middle = 0
    else:
        above_mask = segment >= high
        middle_positions = (~(below_mask | above_mask)).nonzero()[0]
        middle = len(middle_positions)
        order = np.concatenate((below, middle_positions, above_mask.nonzero()[0]))
    if counters is not None:
        counters.record_scan(len(segment))
        counters.record_comparisons((1 if high is None else 2) * len(segment))
        counters.record_move(len(segment))
    return order, len(below), len(below) + middle


@typed_kernel(buffers={"values": "numeric", "payload": "numeric*?"},
              mutates=("values", "payload"))
def partition_two_way(
    values: np.ndarray,
    start: int,
    end: int,
    pivot: float,
    counters: Optional[CostCounters] = None,
    payload=None,
) -> int:
    """Partition ``values[start:end]`` in place around ``pivot``.

    After the call, all elements strictly less than ``pivot`` precede the
    returned split position and all elements greater than or equal to
    ``pivot`` follow it.  ``payload`` may be one aligned array or a sequence
    of aligned arrays (e.g. the row-identifier head of a cracker column and
    the dragged tail attribute of a cracker map); each is permuted
    identically.

    The layout produced — qualifying elements first, original order
    preserved within each side — is exactly a stable partition
    (:func:`_stable_grouping`), applied to values and every payload; the
    split is the size of the first group.

    Returns the absolute index of the first element >= pivot.
    """
    segment = values[start:end]
    if len(segment) == 0:
        return start
    order, split, _ = _stable_grouping(segment, pivot, None, counters)
    values[start:end] = segment[order]
    for extra in _payload_list(payload):
        extra[start:end] = extra[start:end][order]
    return start + split


@typed_kernel(buffers={"values": "numeric", "payload": "numeric*?"},
              mutates=("values", "payload"))
def partition_three_way(
    values: np.ndarray,
    start: int,
    end: int,
    low: float,
    high: float,
    counters: Optional[CostCounters] = None,
    payload=None,
) -> Tuple[int, int]:
    """Partition ``values[start:end]`` in place into ``< low | [low, high) | >= high``.

    Returns ``(split_low, split_high)``: absolute indices of the first
    element >= low and the first element >= high respectively.  This is the
    kernel behind crack-in-three.  ``payload`` may be one aligned array or a
    sequence of aligned arrays, permuted identically.  Like the two-way
    kernel, the grouping is a stable partition (:func:`_stable_grouping`),
    the splits read off its group sizes.
    """
    if high < low:
        raise ValueError("high must be >= low for three-way partitioning")
    segment = values[start:end]
    if len(segment) == 0:
        return start, start
    order, split_low, split_high = _stable_grouping(segment, low, high, counters)
    values[start:end] = segment[order]
    for extra in _payload_list(payload):
        extra[start:end] = extra[start:end][order]
    return start + split_low, start + split_high


@typed_kernel(buffers={"source": "numeric"})
def partition_copy(
    source: np.ndarray,
    low: float,
    high: Optional[float] = None,
    counters: Optional[CostCounters] = None,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``source`` partitioned out of place: ``(values, order, split_low,
    split_high)``.

    A two-way cut at ``low`` when ``high`` is None (``split_high ==
    split_low``), else a three-way cut ``< low | [low, high) | >= high``.
    ``order`` is the stable grouping permutation and ``values`` is
    ``source[order]``, both fresh: what copying ``source``, numbering its
    elements and partitioning both in place leaves, and the same charge as
    that partition, without the copy, the numbering or the copies back.
    ``source`` is only read.
    """
    if high is not None and high < low:
        raise ValueError("high must be >= low for three-way partitioning")
    order, split_low, split_high = _stable_grouping(source, low, high, counters)
    return source[order], order, split_low, split_high


def sort_comparisons(size: int) -> int:
    """Comparisons charged for sorting ``size`` elements."""
    return int(size * max(1.0, np.log2(max(size, 2))))


@typed_kernel(buffers={"values": "numeric"})
def stable_sort_rows(
    values: np.ndarray,
    width: int,
    counters: Optional[CostCounters] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each row of ``values`` — consecutive slices of ``width``
    elements, the last one possibly shorter — stably and out of place.

    Returns ``(sorted_values, positions)``, both as long as ``values``:
    every row's values in ascending order and, aligned with them, their
    positions within the row — exactly what ``np.argsort(row,
    kind="stable")`` gives, ties in their original order.

    Integer keys whose span ``max - min`` and the ``width - 1`` positions
    fit 63 bits together are sorted as packed words ``(value - min) <<
    pbits | position``, in the ``positions`` array itself: the words are
    distinct, so numpy's default (SIMD) sort puts them in (value, position)
    order, which is stable order, and masking and shifting take the words
    apart again without a gather.  Every other input — floats, spans too
    wide to pack — keeps numpy's stable argsort.  Either way the only
    column-sized arrays are the two returned.
    """
    n = len(values)
    full = n - n % width
    # the full rows as one matrix, the ragged tail as one more row
    rows = [(begin, end, size)
            for begin, end, size in ((0, full, width), (full, n, n - full)) if end > begin]
    positions = np.empty(n, dtype=np.int64)
    pbits = (width - 1).bit_length()
    low = values.min() if n and values.dtype.kind in "iu" else None
    if low is not None and (int(values.max()) - int(low)).bit_length() + pbits <= 63:
        # computed in int64, whose wrap-around keeps it exact for uint64
        # keys past 2**63: the true difference is below 2**63
        np.subtract(values, low, out=positions, dtype=np.int64, casting="unsafe")
        positions <<= pbits
        for begin, end, size in rows:
            block = positions[begin:end].reshape(-1, size)
            block |= np.arange(size)
            block.sort(axis=1)
        sorted_values = np.empty_like(values)
        # (value - min) fits the dtype's width, so wrapping casts are exact
        np.right_shift(positions, pbits, out=sorted_values, casting="unsafe")
        sorted_values += low
        positions &= (1 << pbits) - 1
    else:
        for begin, end, size in rows:
            positions[begin:end].reshape(-1, size)[...] = np.argsort(
                values[begin:end].reshape(-1, size), axis=1, kind="stable")
        sorted_values = np.empty_like(values)
        # gather through row-global positions, made and undone in place so
        # that no index-sized temporary sits beside the two results
        for begin, end, size in rows:
            block = positions[begin:end].reshape(-1, size)
            starts = np.arange(begin, end, size)[:, None]
            block += starts
            values.take(positions[begin:end], out=sorted_values[begin:end], mode="clip")
            block -= starts
    if counters is not None:
        counters.record_comparisons(
            n // width * sort_comparisons(width) + sort_comparisons(n - full))
        counters.record_move(n)
    return sorted_values, positions


def binary_search_count(n: int) -> int:
    """Number of comparisons a binary search over ``n`` elements performs:
    ``ceil(log2(n + 1))``, which is the bit length of ``n`` (0 for an empty
    structure), read exactly from the integer."""
    if n <= 0:
        return 0
    return int(n).bit_length()


def binary_search_counts(sizes: np.ndarray) -> np.ndarray:
    """:func:`binary_search_count` of every entry of a non-negative integer
    array.

    ``frexp`` reads the bit length off each entry's float64 value, which is
    exact below 2**53; past it the conversion may round ``2**k - 1`` up to
    ``2**k``, so those few entries are counted as integers instead.
    """
    lengths = np.frexp(sizes)[1]
    wide = lengths > 53
    if wide.any():
        lengths[wide] = [int(n).bit_length() for n in sizes[wide].tolist()]
    return lengths
