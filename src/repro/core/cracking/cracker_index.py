"""The cracker index: piece boundaries over a cracker column.

The cracker index is an ordered mapping from key values to positions in the
cracker column.  A boundary ``(value, position)`` asserts the invariant:

    every element before ``position`` is strictly smaller than ``value``, and
    every element at or after ``position`` is greater than or equal to
    ``value``.

Consecutive boundaries delimit *pieces*.  A piece carries no order of its
own: a query bound inside it is a physical crack, and a column becomes
sorted only by being cracked everywhere (``CrackedColumn.converged``).

MonetDB implements this structure as an AVL tree; here two parallel
sequences ordered by boundary value give the same O(log #pieces) navigation
through :mod:`bisect`, one bisect per query bound: :meth:`CrackerIndex.lookup`
answers both "is this a boundary, and where" and "which piece holds it", and
:meth:`CrackerIndex.add_boundary` inserts at the slot it found.  The
sequences do not stay small — a query adds up to two boundaries, so 12 000
queries leave some 24 000 pieces — and every merged update moves each later
boundary by one, so storage is chosen per sequence.
Boundary **values** are a Python list: bisecting Python floats is the
fastest navigation there is, and values never shift.  Boundary
**positions** are an ``array('q')``: it reads and inserts like a list
(scalar reads are Python ``int``; an insert is one memmove with the
interpreter lock held) and exports the buffer protocol, so the update path
shifts and range-checks a suffix of positions as one vectorised operation
on a zero-copy numpy view — no interpreter step per piece.

An ``array`` cannot be resized while a view of it is alive, so a view is a
local of the method that makes it, dropped before that method returns or
raises: never stored, never returned un-copied.  Growable numpy arrays with
slice-shift inserts were measured and rejected: the update path gains the
same, but every ``add_boundary`` then copies the tail with the interpreter
lock released and the fan-out workers of a partitioned column convoy on
re-acquiring it (``batch_partitioned`` throughput −32 %, ROADMAP item 6).
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Piece:
    """A contiguous region of the cracker column with known value bounds.

    ``low``/``high`` are value bounds: every value in ``[start, end)`` is
    ``>= low`` (if ``low`` is not ``None``) and ``< high`` (if ``high`` is
    not ``None``).
    """

    start: int
    end: int
    low: Optional[float]
    high: Optional[float]

    @property
    def size(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = "-inf" if self.low is None else self.low
        hi = "+inf" if self.high is None else self.high
        return f"Piece([{self.start}:{self.end}), values [{lo}, {hi}))"


class CrackerIndex:
    """Ordered boundary structure over a cracker column of ``size`` elements."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self.size = size
        # boundary i: values[0.._positions[i]) < _values[i] <= values[_positions[i]..)
        self._values: List[float] = []
        self._positions = array("q")

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        """Number of boundaries currently registered."""
        return len(self._values)

    @property
    def piece_count(self) -> int:
        """Number of pieces (boundaries + 1)."""
        return len(self._values) + 1

    @property
    def boundary_values(self) -> List[float]:
        return list(self._values)

    @property
    def boundary_positions(self) -> List[int]:
        return self._positions.tolist()

    def positions_for_values_above(self, value: float) -> np.ndarray:
        """Boundary positions whose boundary value is strictly above ``value``.

        Returned as a non-decreasing int64 array (a copy: see the module
        docstring): these are the pieces a ripple insert or delete walks
        (one relocated element per distinct position), and the vectorized
        ripple kernels consume them as a typed buffer.  Boundary values are
        kept sorted, so the filter is a bisect, not a scan.
        """
        index = bisect.bisect_right(self._values, value)
        return np.frombuffer(self._positions, dtype=np.int64)[index:].copy()

    def has_boundary(self, value: float) -> bool:
        """True when a boundary for exactly ``value`` exists."""
        index = bisect.bisect_left(self._values, value)
        return index < len(self._values) and self._values[index] == value

    # -- lookups --------------------------------------------------------------

    def lookup(self, value: float) -> Tuple[int, int, int]:
        """Where ``value`` falls, with one bisect: ``(slot, start, end)``.

        A boundary value gives slot ``-1`` and its position as ``start ==
        end``.  Any other value lies in the piece ``[start, end)`` and would
        be inserted at ``slot`` among the boundary values — what
        :meth:`add_boundary` takes.  An empty piece has ``start == end``
        too, so only the slot tells the two apart.
        """
        values = self._values
        positions = self._positions
        slot = bisect.bisect_left(values, value)
        if slot < len(values):
            end = positions[slot]
            if values[slot] == value:
                return -1, end, end
        else:
            end = self.size
        return slot, positions[slot - 1] if slot else 0, end

    def position_of(self, value: float) -> Optional[int]:
        """Position registered for ``value``, or None when not a boundary."""
        index = bisect.bisect_left(self._values, value)
        if index < len(self._values) and self._values[index] == value:
            return self._positions[index]
        return None

    def piece_for_value(self, value: float) -> Piece:
        """The piece whose value range contains ``value``.

        A value equal to a boundary belongs to the piece *after* it (the
        boundary's semantics are "values >= boundary start here").
        """
        index = bisect.bisect_right(self._values, value)
        return self._piece_at(index)

    def _piece_at(self, index: int) -> Piece:
        start = self._positions[index - 1] if index > 0 else 0
        end = self._positions[index] if index < len(self._positions) else self.size
        low = self._values[index - 1] if index > 0 else None
        high = self._values[index] if index < len(self._values) else None
        return Piece(start=start, end=end, low=low, high=high)

    def pieces(self) -> List[Piece]:
        """All pieces, left to right."""
        return [self._piece_at(i) for i in range(self.piece_count)]

    def crack_work(self, low: Optional[float], high: Optional[float]) -> int:
        """Elements a crack for ``[low, high)`` would move, without cracking.

        The sizes of the distinct pieces holding a bound that is not yet a
        boundary: both bounds in one piece move it once (crack-in-three),
        bounds in two pieces move both.  Reads the flat buffers only — one
        :meth:`lookup` per bound, no :class:`Piece`.
        """
        work = 0
        first = -1
        if low is not None:
            first, start, end = self.lookup(low)
            work = end - start
        if high is not None:
            second, start, end = self.lookup(high)
            if second != first:
                work += end - start
        return work

    def locate(self, keys: Sequence[float]) -> Tuple[np.ndarray, np.ndarray,
                                                      np.ndarray, np.ndarray]:
        """Where ascending ``keys`` fall, one bisect each, as int64 arrays:
        ``(slots, known, starts, ends)``.

        ``slots[j]`` is the insertion point of ``keys[j]`` among the
        boundary values and ``known[j]`` whether it is one.  A known key's
        position is ``ends[j]``; any other key lies in the piece ``[starts[j],
        ends[j])``, the ``slots[j]``-th.
        """
        values = self._values
        count = len(keys)
        slots = np.fromiter(map(partial(bisect.bisect_left, values), keys),
                            dtype=np.int64, count=count)
        after = np.fromiter(map(partial(bisect.bisect_right, values), keys),
                            dtype=np.int64, count=count)
        positions = np.frombuffer(self._positions, dtype=np.int64)
        starts = np.where(slots > 0, positions.take(slots - 1, mode="clip"), 0) \
            if len(positions) else np.zeros(count, dtype=np.int64)
        ends = np.where(slots < len(positions), positions.take(slots, mode="clip"),
                        self.size) if len(positions) else np.full(count, self.size)
        del positions
        return slots, after > slots, starts, ends

    # -- mutation --------------------------------------------------------------

    def add_boundary(self, value: float, position: int,
                     slot: Optional[int] = None) -> None:
        """Register that the first element >= ``value`` sits at ``position``.

        ``slot`` is ``value``'s insertion point among the boundary values
        when the caller already has it from :meth:`lookup`; otherwise it
        is bisected here.
        """
        if not 0 <= position <= self.size:
            raise ValueError(
                f"boundary position {position} outside column of size {self.size}"
            )
        values = self._values
        positions = self._positions
        if slot is None:
            slot = bisect.bisect_left(values, value)
        if slot < len(values) and values[slot] == value:
            existing = positions[slot]
            if existing != position:
                raise ValueError(
                    f"conflicting boundary for value {value!r}: "
                    f"existing position {existing}, new position {position}"
                )
            return
        # monotonicity check against neighbours
        if slot > 0 and positions[slot - 1] > position:
            raise ValueError(
                f"boundary ({value}, {position}) violates ordering against "
                f"({values[slot - 1]}, {positions[slot - 1]})"
            )
        if slot < len(positions) and positions[slot] < position:
            raise ValueError(
                f"boundary ({value}, {position}) violates ordering against "
                f"({values[slot]}, {positions[slot]})"
            )
        values.insert(slot, value)
        positions.insert(slot, position)

    def add_boundaries(self, slots: np.ndarray, values: Sequence[float],
                       positions: np.ndarray) -> None:
        """Register many new boundaries in one merge: ascending ``values``,
        none of them a boundary yet, at their ``slots`` (insertion points
        among the current boundary values, as :meth:`locate` gives them).

        One pass over each sequence instead of one insert per boundary;
        ``positions`` must keep the positions non-decreasing.
        """
        old = self._values
        merged: List[float] = []
        previous = 0
        for slot, value in zip(slots.tolist(), values):
            merged += old[previous:slot]
            merged.append(value)
            previous = slot
        merged += old[previous:]
        current = np.frombuffer(self._positions, dtype=np.int64)
        combined = np.insert(current, slots, positions)
        del current
        if len(combined) and (combined[0] < 0 or combined[-1] > self.size
                              or np.any(combined[1:] < combined[:-1])):
            raise ValueError("new boundaries violate the position ordering")
        self._values = merged
        self._positions = array("q")
        self._positions.frombytes(combined.view(np.uint8))

    def shift_positions(self, from_position: int, delta: int) -> None:
        """Shift every boundary at or after ``from_position`` by ``delta``.

        Used by the update machinery (ripple insert/delete) and by partial
        cracking when the underlying cracker column grows or shrinks.
        ``size`` is adjusted by the same delta.
        """
        self._shift_from(bisect.bisect_left(self._positions, from_position), delta)

    def shift_positions_for_values_above(self, value: float, delta: int) -> None:
        """Shift boundaries whose *value* is strictly greater than ``value``.

        This is the boundary adjustment performed by ripple insertion and
        deletion: when an element enters (``delta=+1``) or leaves
        (``delta=-1``) the piece containing ``value``, every piece to the
        right of it — identified by boundary values above ``value`` — shifts
        by one position.  ``size`` is adjusted by the same delta.
        """
        self._shift_from(bisect.bisect_right(self._values, value), delta)

    def _shift_from(self, first: int, delta: int) -> None:
        """Move boundaries ``first..`` and the column end by ``delta``."""
        self.size += delta
        if self.size < 0:
            raise ValueError("shift made the column size negative")
        positions = np.frombuffer(self._positions, dtype=np.int64)
        positions[first:] += delta
        out_of_range = len(positions) and (
            positions.min() < 0 or positions.max() > self.size
        )
        del positions  # a raise would keep the view alive in its traceback
        if out_of_range:
            raise ValueError("shift produced out-of-range boundaries")

    def drop_boundaries_in_position_range(self, start: int, end: int) -> None:
        """Remove boundaries whose position lies in ``(start, end)`` exclusive.

        Used when a contiguous region is extracted (hybrid algorithms move
        qualifying tuples out of initial partitions) — boundaries strictly
        inside the removed region no longer describe anything.  Positions
        are non-decreasing, so those boundaries are adjacent.
        """
        first = bisect.bisect_right(self._positions, start)
        last = max(first, bisect.bisect_left(self._positions, end))
        del self._values[first:last]
        del self._positions[first:last]

    # -- validation ----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when internal invariants are violated (tests)."""
        assert len(self._values) == len(self._positions)
        assert all(
            self._values[i] < self._values[i + 1] for i in range(len(self._values) - 1)
        ), "boundary values must be strictly increasing"
        assert all(
            self._positions[i] <= self._positions[i + 1]
            for i in range(len(self._positions) - 1)
        ), "boundary positions must be non-decreasing"
        assert all(0 <= p <= self.size for p in self._positions), (
            "boundary positions must lie within the column"
        )
