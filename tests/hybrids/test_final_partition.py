"""Unit tests for the hybrid final partition."""

import numpy as np
import pytest

from repro.core.hybrids.final_partition import FinalPartition
from repro.cost.counters import CostCounters


def add_range_piece(partition, rng, low, high, count=200):
    values = rng.integers(low, high, size=count).astype(np.int64)
    rowids = rng.integers(0, 10**6, size=count).astype(np.int64)
    partition.add_piece(low, high, values, rowids)
    return values, rowids


@pytest.mark.parametrize("mode", ["crack", "sort"])
class TestModes:
    def test_add_and_search_full_piece(self, rng, mode):
        partition = FinalPartition(mode=mode)
        values, rowids = add_range_piece(partition, rng, 100, 200)
        found = partition.search(100, 200)
        assert set(found.tolist()) == set(rowids.tolist())
        assert len(partition) == len(values)
        partition.check_invariants()

    def test_partial_overlap_search(self, rng, mode):
        partition = FinalPartition(mode=mode)
        values, rowids = add_range_piece(partition, rng, 100, 200)
        found = partition.search(120, 150)
        expected = rowids[(values >= 120) & (values < 150)]
        assert set(found.tolist()) == set(expected.tolist())
        partition.check_invariants()

    def test_multiple_disjoint_pieces(self, rng, mode):
        partition = FinalPartition(mode=mode)
        v1, r1 = add_range_piece(partition, rng, 0, 100)
        v2, r2 = add_range_piece(partition, rng, 300, 400)
        assert partition.piece_count == 2
        found = partition.search(50, 350)
        expected = set(r1[(v1 >= 50)].tolist()) | set(r2[(v2 < 350)].tolist())
        assert set(found.tolist()) == expected

    def test_overlapping_pieces_fail_the_invariants(self, rng, mode):
        # a key range is extracted at most once: the check used to end in
        # ``or True`` and accepted anything
        partition = FinalPartition(mode=mode)
        add_range_piece(partition, rng, 0, 100)
        add_range_piece(partition, rng, 100, 200)  # adjacent is disjoint
        partition.check_invariants()
        add_range_piece(partition, rng, 150, 250)
        with pytest.raises(AssertionError, match="overlap"):
            partition.check_invariants()

    def test_empty_piece_ignored(self, rng, mode):
        partition = FinalPartition(mode=mode)
        partition.add_piece(0, 10, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert partition.piece_count == 0
        assert len(partition.search(0, 10)) == 0

    def test_misaligned_rejected(self, rng, mode):
        partition = FinalPartition(mode=mode)
        with pytest.raises(ValueError):
            partition.add_piece(0, 10, np.array([1, 2]), np.array([0]))


class TestModeSpecific:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FinalPartition(mode="shuffle")

    def test_sort_mode_sorts_pieces(self, rng):
        partition = FinalPartition(mode="sort")
        add_range_piece(partition, rng, 0, 1000, count=500)
        piece = partition.pieces[0]
        assert piece.sorted
        assert np.all(np.diff(piece.values) >= 0)

    def test_crack_mode_refines_lazily(self, rng):
        partition = FinalPartition(mode="crack")
        add_range_piece(partition, rng, 0, 1000, count=500)
        piece = partition.pieces[0]
        assert not piece.sorted
        assert piece.index.piece_count == 1
        partition.search(100, 200)
        assert piece.index.piece_count >= 2  # the overlap query cracked it

    def test_sort_mode_merge_more_expensive_than_crack(self, rng):
        values = rng.integers(0, 1000, size=2000).astype(np.int64)
        rowids = np.arange(2000, dtype=np.int64)
        sort_counters = CostCounters()
        FinalPartition(mode="sort").add_piece(0, 1000, values, rowids, sort_counters)
        crack_counters = CostCounters()
        FinalPartition(mode="crack").add_piece(0, 1000, values, rowids, crack_counters)
        assert sort_counters.comparisons > crack_counters.comparisons
