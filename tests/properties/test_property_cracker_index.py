"""The cracker index and the ripple kernels against textbook models.

``ListModel`` below is the cracker index as two Python lists — the
formulation the package started from, transcribed — and the machine drives a
:class:`CrackerIndex` and the model through the same random mutations.
Whatever storage the package uses must show, after **every** step, the
model's boundaries, pieces, size and lookups, pass its own
``check_invariants`` and hand out plain ``int``/``bool`` (never a numpy
scalar: pieces are compared, hashed and formatted all over the package).

The two ripple kernels are held to a loop that walks the pieces one by one,
as the SIGMOD'07 paper states the algorithm: equal arrays, equal charges, on
layouts with empty pieces (duplicate boundary positions), a boundary at the
column end, a one-piece column and the delete of a piece's last element.
"""

import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.core.cracking.crack_engine import (crack_range,
                                              ripple_delete_position,
                                              ripple_insert_value)
from repro.core.cracking.cracker_index import CrackerIndex, Piece
from repro.cost.counters import CostCounters

DOMAIN = 24
PROBES = [v / 2 for v in range(-2, 2 * DOMAIN + 3)]


class ListModel:
    """The cracker index as two lists (see ``CrackerIndex`` for the terms)."""

    def __init__(self, size, values=(), positions=()):
        self.size = size
        self.values, self.positions = list(values), list(positions)

    def add_boundary(self, value, position):
        if not 0 <= position <= self.size:
            raise ValueError(
                f"boundary position {position} outside column of size {self.size}")
        values, positions = self.values, self.positions
        i = bisect.bisect_left(values, value)
        if i < len(values) and values[i] == value:
            if positions[i] != position:
                raise ValueError(
                    f"conflicting boundary for value {value!r}: existing "
                    f"position {positions[i]}, new position {position}")
        else:
            for j, broken in ((i - 1, i > 0 and positions[i - 1] > position),
                              (i, i < len(values) and positions[i] < position)):
                if broken:
                    raise ValueError(
                        f"boundary ({value}, {position}) violates ordering "
                        f"against ({values[j]}, {positions[j]})")
            values.insert(i, value)
            positions.insert(i, position)

    def shifted(self, first, delta):
        """The model after boundaries ``first..`` moved by ``delta``, or None
        when the index must refuse the shift."""
        positions = self.positions[:first] + [
            p + delta for p in self.positions[first:]]
        size = self.size + delta
        if size < 0 or any(p < 0 or p > size for p in positions):
            return None
        return ListModel(size, self.values, positions)

    def piece(self, i):
        return Piece(
            start=self.positions[i - 1] if i > 0 else 0,
            end=self.positions[i] if i < len(self.positions) else self.size,
            low=self.values[i - 1] if i > 0 else None,
            high=self.values[i] if i < len(self.values) else None,
        )

    def drop(self, start, end):
        keep = [i for i, p in enumerate(self.positions) if not start < p < end]
        self.values = [self.values[i] for i in keep]
        self.positions = [self.positions[i] for i in keep]

    def build(self):
        """A :class:`CrackerIndex` in this state, through its public surface."""
        index = CrackerIndex(self.size)
        for value, position in zip(self.values, self.positions):
            index.add_boundary(value, position)
        return index


def ordered(positions):
    return all(a <= b for a, b in zip(positions, positions[1:]))


key = st.one_of(st.integers(0, DOMAIN),
                st.integers(0, 2 * DOMAIN).map(lambda v: v / 2))


class CrackerIndexMachine(RuleBasedStateMachine):

    @initialize(size=st.integers(0, 60),
                cuts=st.lists(st.tuples(key, st.integers(0, 60)),
                              max_size=12, unique_by=lambda cut: cut[0]))
    def start(self, size, cuts):
        """Some index over ``size`` elements: distinct values, positions in
        the same order (repeats — empty pieces — included)."""
        positions = sorted(min(position, size) for _, position in cuts)
        self.model = ListModel(size, sorted(value for value, _ in cuts), positions)
        self.index = self.model.build()

    def position(self):
        return st.integers(-2, self.model.size + 2)

    @rule(value=key, data=st.data())
    def add_boundary(self, value, data):
        # a position near the slot the value belongs to is mostly accepted,
        # any position at all is mostly refused: both matter
        model = self.model
        i = bisect.bisect_left(model.values, value)
        low = model.positions[i - 1] if i > 0 else 0
        high = model.positions[i] if i < len(model.positions) else model.size
        position = data.draw(st.one_of(st.integers(low, max(low, high)),
                                       self.position()))
        # a new value may be registered at the slot lookup found for it
        slot = self.index.lookup(value)[0] if data.draw(st.booleans()) else -1
        arguments = (value, position) if slot < 0 else (value, position, slot)
        try:
            model.add_boundary(value, position)
        except ValueError as expected:
            with pytest.raises(ValueError) as refused:
                self.index.add_boundary(*arguments)
            assert str(refused.value) == str(expected)
        else:
            self.index.add_boundary(*arguments)

    @rule(value=key)
    def repeat_a_boundary(self, value):
        """Re-registering a boundary where it is changes nothing."""
        position = self.index.position_of(value)
        if position is not None:
            self.index.add_boundary(value, position)

    def shift(self, first, delta, call):
        after = self.model.shifted(first, delta)
        if after is None:
            with pytest.raises(ValueError):
                call()
            # a refused shift leaves the index in no particular state
            self.index = self.model.build()
        elif ordered(after.positions):  # else: a shift no caller may ask for
            call()
            self.model = after

    @rule(data=st.data(), delta=st.integers(-3, 3))
    def shift_positions(self, data, delta):
        start = data.draw(self.position())
        first = sum(p < start for p in self.model.positions)
        self.shift(first, delta,
                   lambda: self.index.shift_positions(start, delta))

    @rule(value=key, delta=st.sampled_from([-1, +1]))
    def shift_positions_for_values_above(self, value, delta):
        first = bisect.bisect_right(self.model.values, value)
        self.shift(first, delta, lambda: self.index
                   .shift_positions_for_values_above(value, delta))

    @rule(data=st.data())
    def drop_boundaries_in_position_range(self, data):
        start, end = data.draw(self.position()), data.draw(self.position())
        self.model.drop(start, end)
        self.index.drop_boundaries_in_position_range(start, end)

    @invariant()
    def index_equals_model(self):
        assert_same(self.index, self.model)


def assert_same(index, model):
    index.check_invariants()
    assert index.size == model.size and type(index.size) is int
    assert len(index) == len(model.values)
    assert index.piece_count == len(model.values) + 1
    assert index.boundary_values == model.values
    assert index.boundary_positions == model.positions
    assert all(type(p) is int for p in index.boundary_positions)
    pieces = index.pieces()
    assert pieces == [model.piece(i) for i in range(len(model.values) + 1)]
    for piece in pieces:
        assert type(piece.start) is int and type(piece.end) is int
    for probe in PROBES:
        i = bisect.bisect_right(model.values, probe)
        assert index.piece_for_value(probe) == model.piece(i)
        assert_lookup(index, probe)
        known = probe in model.values
        assert index.has_boundary(probe) is known
        position = index.position_of(probe)
        if known:
            assert position == model.positions[model.values.index(probe)]
            assert type(position) is int
        else:
            assert position is None
        above = index.positions_for_values_above(probe)
        assert above.dtype == np.int64 and above.tolist() == model.positions[i:]


def assert_lookup(index, probe):
    """:meth:`CrackerIndex.lookup` says what ``position_of`` and
    ``piece_for_value`` say together, and gives the insertion point."""
    slot, start, end = index.lookup(probe)
    assert all(type(x) is int for x in (slot, start, end))
    position = index.position_of(probe)
    if position is not None:
        assert (slot, start, end) == (-1, position, position)
    else:
        piece = index.piece_for_value(probe)
        assert (start, end) == (piece.start, piece.end)
        assert slot == bisect.bisect_left(index.boundary_values, probe)


@st.composite
def boundary_sets(draw):
    """An index over ``size`` elements with distinct boundary values and
    non-decreasing positions, runs of equal positions (empty pieces) among
    them."""
    size = draw(st.integers(0, 40))
    values = sorted(draw(st.lists(key, max_size=12, unique=True)))
    positions = sorted(draw(st.lists(st.integers(0, size), min_size=len(values),
                                     max_size=len(values))))
    return ListModel(size, values, positions).build()


@settings(max_examples=200, deadline=None)
@given(index=boundary_sets(), probes=st.lists(key, max_size=8))
@example(index=ListModel(6, [2, 3, 4], [3, 3, 3]).build(), probes=[2.5, 3, 3.5, 9])
@example(index=ListModel(0, [1, 5], [0, 0]).build(), probes=[0, 1, 3, 5, 6])
@example(index=CrackerIndex(4), probes=[0, 7])
def test_lookup_is_position_of_and_piece_for_value(index, probes):
    """On random boundary sets, a probe on a boundary and one in an empty
    piece included, one lookup equals the two older lookups; a new value
    registered at the slot it reports lands where a bisect would put it."""
    for probe in probes + index.boundary_values:
        assert_lookup(index, probe)
    for probe in probes:
        slot, start, end = index.lookup(probe)
        if slot >= 0:
            model = ListModel(index.size, index.boundary_values,
                              index.boundary_positions)
            model.add_boundary(probe, start)
            index.add_boundary(probe, start, slot)
            assert index.boundary_values == model.values
            assert index.boundary_positions == model.positions
            index.check_invariants()


def test_bounds_in_two_empty_pieces_of_one_span_crack_in_three():
    """Bounds in two distinct empty pieces that share a span are one piece
    to crack: crack-in-three on the empty span, one navigation charge (two
    crack-in-twos would charge a second)."""
    values = np.array([7, 1, 9, 3, 8, 2], dtype=np.float64)
    rowids = np.arange(6, dtype=np.int64)
    index = CrackerIndex(6)
    crack_range(values, rowids, index, 4.0, 5.0)        # empty piece [3, 3)
    crack_range(values, rowids, index, 5.0, 6.0)        # another at [3, 3)
    before_values, before_rowids = values.copy(), rowids.copy()
    assert index.pieces()[1:3] == [Piece(3, 3, 4.0, 5.0), Piece(3, 3, 5.0, 6.0)]
    counters = CostCounters()
    assert crack_range(values, rowids, index, 4.5, 5.5, counters) == (3, 3)
    assert rowids[3:3].size == 0
    assert counters.as_dict() == {**CostCounters().as_dict(),
                                  "comparisons": 3, "pieces_created": 2}
    assert index.boundary_values == [4.0, 4.5, 5.0, 5.5, 6.0]
    assert index.boundary_positions == [3, 3, 3, 3, 3]
    assert np.array_equal(values, before_values)
    assert np.array_equal(rowids, before_rowids)


CrackerIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestCrackerIndexAgainstListModel = CrackerIndexMachine.TestCase


# -- the ripple kernels ---------------------------------------------------------


def textbook_ripple_insert(values, rowids, length, value, rowid, boundaries,
                           counters):
    """Walk the pieces right to left: each hands its first element to the
    hole behind it (an empty piece has none to hand on)."""
    hole, moves = length, 0
    for start in reversed(boundaries):
        if start == hole:
            continue
        values[hole], rowids[hole] = values[start], rowids[start]
        hole, moves = start, moves + 1
    values[hole], rowids[hole] = value, rowid
    counters.record_move(moves + 1)
    counters.record_random_access(moves + 1)


def textbook_ripple_delete(values, rowids, position, length, boundaries,
                           counters):
    """Walk the pieces left to right from the target: each fills the hole
    before it with its last element (unless that *is* the hole)."""
    hole, moves = position, 0
    for end in list(boundaries) + [length]:
        if end - 1 == hole:
            continue
        values[hole], rowids[hole] = values[end - 1], rowids[end - 1]
        hole, moves = end - 1, moves + 1
    counters.record_move(moves)
    counters.record_random_access(moves)
    return moves


@st.composite
def layouts(draw):
    """A live length, a cracker column with one spare slot, and the
    non-decreasing boundary positions of a suffix of its pieces."""
    length = draw(st.integers(1, 40))
    count = draw(st.integers(0, 12))
    boundaries = sorted(draw(st.lists(
        st.integers(0, length), min_size=count, max_size=count)))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).integers(
        0, 1000, size=length + 1).astype(dtype)
    rowids = np.random.default_rng(seed + 1).permutation(length + 1)
    return length, values, rowids.astype(np.int64), boundaries


def both(kernel, textbook, values, rowids, *arguments):
    """Run the kernel and the loop on private copies; compare everything."""
    ours, theirs = (values.copy(), rowids.copy()), (values.copy(), rowids.copy())
    charged, expected = CostCounters(), CostCounters()
    *scalars, boundaries = arguments
    result = kernel(*ours, *scalars,
                    np.asarray(boundaries, dtype=np.int64), charged)
    reference = textbook(*theirs, *scalars, boundaries, expected)
    assert result == reference
    assert np.array_equal(ours[0], theirs[0])
    assert np.array_equal(ours[1], theirs[1])
    assert ours[0].dtype == values.dtype
    assert charged == expected
    # and without counters the kernel moves exactly the same elements
    silent = (values.copy(), rowids.copy())
    kernel(*silent, *scalars, np.asarray(boundaries, dtype=np.int64), None)
    assert np.array_equal(silent[0], ours[0])
    assert np.array_equal(silent[1], ours[1])


def column(length):
    return (np.arange(100, 101 + length, dtype=np.int64),
            np.arange(length + 1, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(layout=layouts())
@example(layout=(5, *column(5), []))                # a one-piece column
@example(layout=(5, *column(5), [2, 5]))            # a boundary at the end
@example(layout=(5, *column(5), [5, 5, 5]))         # ... three of them
@example(layout=(6, *column(6), [0, 0, 3, 3, 3]))   # empty pieces
def test_ripple_insert_is_one_move_per_non_empty_later_piece(layout):
    length, values, rowids, boundaries = layout
    both(ripple_insert_value, textbook_ripple_insert,
         values, rowids, length, 777, 4242, boundaries)


@settings(max_examples=200, deadline=None)
@given(layout=layouts(), where=st.integers(0, 39))
@example(layout=(5, *column(5), []), where=2)           # a one-piece column
@example(layout=(1, *column(1), []), where=0)           # its only element
@example(layout=(6, *column(6), [3, 3, 6]), where=2)    # a piece's last element
@example(layout=(6, *column(6), [3, 3, 6, 6]), where=5)
def test_ripple_delete_is_one_move_per_donating_piece(layout, where):
    length, values, rowids, boundaries = layout
    position = where % length
    # the target piece holds the hole, so every later boundary lies behind it
    boundaries = [b for b in boundaries if b > position]
    both(ripple_delete_position, textbook_ripple_delete,
         values, rowids, position, length, boundaries)
