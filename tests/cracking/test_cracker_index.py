"""Unit tests for the cracker index (piece-boundary bookkeeping)."""

import pytest

from repro.core.cracking.cracker_index import CrackerIndex


class TestBoundaries:
    def test_initial_state_single_piece(self):
        index = CrackerIndex(100)
        assert index.piece_count == 1
        piece = index.piece_for_value(50)
        assert piece.start == 0 and piece.end == 100
        assert piece.low is None and piece.high is None

    def test_add_boundary_splits_piece(self):
        index = CrackerIndex(100)
        index.add_boundary(50, 40)
        assert index.piece_count == 2
        left = index.piece_for_value(10)
        right = index.piece_for_value(60)
        assert (left.start, left.end, left.high) == (0, 40, 50)
        assert (right.start, right.end, right.low) == (40, 100, 50)

    def test_value_on_boundary_belongs_to_right_piece(self):
        index = CrackerIndex(100)
        index.add_boundary(50, 40)
        piece = index.piece_for_value(50)
        assert piece.start == 40

    def test_lookup_of_a_boundary(self):
        index = CrackerIndex(10)
        index.add_boundary(5, 3)
        assert index.lookup(5) == (-1, 3, 3)
        assert not index.has_boundary(6)
        assert index.has_boundary(5)
        assert not index.has_boundary(6)

    def test_duplicate_boundary_same_position_is_noop(self):
        index = CrackerIndex(10)
        index.add_boundary(5, 3)
        index.add_boundary(5, 3)
        assert index.piece_count == 2

    def test_conflicting_duplicate_boundary_rejected(self):
        index = CrackerIndex(10)
        index.add_boundary(5, 3)
        with pytest.raises(ValueError, match="conflicting"):
            index.add_boundary(5, 4)

    def test_out_of_range_position_rejected(self):
        index = CrackerIndex(10)
        with pytest.raises(ValueError):
            index.add_boundary(5, 11)

    def test_ordering_violation_rejected(self):
        index = CrackerIndex(100)
        index.add_boundary(50, 40)
        with pytest.raises(ValueError, match="ordering"):
            index.add_boundary(60, 30)  # larger value, smaller position
        with pytest.raises(ValueError, match="ordering"):
            index.add_boundary(40, 50)  # smaller value, larger position

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CrackerIndex(-1)

    def test_piece_iteration_and_indexing(self):
        index = CrackerIndex(100)
        index.add_boundary(10, 20)
        index.add_boundary(50, 60)
        pieces = index.pieces()
        assert len(pieces) == 3
        assert [p.start for p in pieces] == [0, 20, 60]
        assert pieces[1].low == 10
        assert index.piece_for_value(30) == pieces[1]

    def test_check_invariants_passes(self):
        index = CrackerIndex(100)
        index.add_boundary(10, 20)
        index.add_boundary(50, 60)
        index.check_invariants()


class TestShifts:
    def test_shift_positions(self):
        index = CrackerIndex(100)
        index.add_boundary(10, 20)
        index.add_boundary(50, 60)
        index.shift_positions(30, +5)
        assert index.lookup(10) == (-1, 20, 20)
        assert index.lookup(50) == (-1, 65, 65)
        assert index.size == 105

    def test_shift_positions_for_values_above(self):
        index = CrackerIndex(100)
        index.add_boundary(10, 20)
        index.add_boundary(50, 60)
        index.shift_positions_for_values_above(10, +1)
        assert index.lookup(10) == (-1, 20, 20)  # value 10 itself not shifted
        assert index.lookup(50) == (-1, 61, 61)
        assert index.size == 101

    def test_shift_rejects_negative_size(self):
        index = CrackerIndex(2)
        with pytest.raises(ValueError):
            index.shift_positions(0, -5)

    def test_shift_rejects_a_prefix_boundary_past_the_shrunken_end(self):
        # nothing above 60 moves, but the column shrinks under the boundary
        # at its end: the unshifted prefix's last boundary is checked too
        index = CrackerIndex(100)
        index.add_boundary(10, 20)
        index.add_boundary(50, 100)
        with pytest.raises(ValueError, match="shift produced out-of-range boundaries"):
            index.shift_positions_for_values_above(60, -1)

    def test_drop_boundaries_in_position_range(self):
        index = CrackerIndex(100)
        index.add_boundary(10, 20)
        index.add_boundary(30, 40)
        index.add_boundary(50, 60)
        index.drop_boundaries_in_position_range(20, 60)
        assert index.lookup(10) == (-1, 20, 20)
        assert not index.has_boundary(30)
        assert index.lookup(50) == (-1, 60, 60)
        index.check_invariants()
