"""Unit tests for stochastic cracking."""

import numpy as np
import pytest

from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.cost.counters import CostCounters


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["ddr", "ddc", "mdd1r"])
    def test_results_match_reference(self, medium_values, reference, variant):
        cracked = StochasticCrackedColumn(medium_values, variant=variant, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(30):
            low = int(rng.integers(0, 90_000))
            high = low + int(rng.integers(1, 10_000))
            assert set(cracked.search(low, high).tolist()) == reference(
                medium_values, low, high
            )
        cracked.check_invariants()

    def test_invalid_variant_rejected(self, small_values):
        with pytest.raises(ValueError):
            StochasticCrackedColumn(small_values, variant="bogus")

    def test_deterministic_given_seed(self, small_values):
        a = StochasticCrackedColumn(small_values, seed=7)
        b = StochasticCrackedColumn(small_values, seed=7)
        a.search(10, 20)
        b.search(10, 20)
        assert np.array_equal(a.values, b.values)


class _ScriptedRNG:
    """Deterministic stand-in for the column's random generator."""

    def __init__(self, positions):
        self.positions = list(positions)

    def integers(self, start, end):
        if self.positions:
            return self.positions.pop(0)
        return start


class TestAuxiliaryPivotRetry:
    """Regression: an unlucky DDR draw must not abort the shrink loop.

    A random position holding the piece minimum yields a pivot with
    ``pivot <= piece.low``, which cannot cut the piece — but it does not
    prove the piece degenerate.  The shrink loop must retry a bounded
    number of alternate positions before giving up.
    """

    def _column(self):
        values = np.array(
            [50, 10, 60, 10, 70, 80, 90, 95, 85, 75, 65, 55], dtype=np.int64
        )
        cracked = StochasticCrackedColumn(
            values, variant="mdd1r", seed=0
        )
        cracked.search(None, None)  # materialise without cracking
        cracked.crack_at(10.0)  # bounded piece: low becomes the minimum value
        return cracked

    def test_minimum_draw_is_retried(self):
        cracked = self._column()
        pieces_before = cracked.piece_count
        # first draw lands on a minimum-valued element (position 1 holds 10,
        # equal to the piece's low bound); second draw is cuttable (70)
        cracked._rng = _ScriptedRNG([1, 4])
        cracked._shrink_piece_containing(70.0, None, recursive=False)
        assert cracked.index.has_boundary(70.0)
        assert cracked.piece_count == pieces_before + 1
        cracked.check_invariants()

    def test_existing_boundary_draw_is_retried(self):
        cracked = self._column()
        cracked.crack_at(70.0)
        pieces_before = cracked.piece_count
        # first draw lands on 70 — already a boundary value, uncuttable —
        # the retry then lands on 90, which cuts
        piece = cracked.index.piece_for_value(90.0)
        segment = cracked.values[piece.start:piece.end]
        position_of_70 = piece.start + int(np.flatnonzero(segment == 70)[0])
        position_of_90 = piece.start + int(np.flatnonzero(segment == 90)[0])
        cracked._rng = _ScriptedRNG([position_of_70, position_of_90])
        cracked._shrink_piece_containing(90.0, None, recursive=False)
        assert cracked.index.has_boundary(90.0)
        assert cracked.piece_count == pieces_before + 1
        cracked.check_invariants()

    def test_degenerate_piece_terminates(self):
        values = np.full(200, 42, dtype=np.int64)
        cracked = StochasticCrackedColumn(
            values, variant="ddr", seed=5
        )
        result = cracked.search(10, 50)  # must not loop forever
        assert len(result) == 200
        cracked.check_invariants()

    def test_seeded_duplicate_heavy_workload_stays_correct(self, reference):
        rng = np.random.default_rng(11)
        # minimum-heavy data: a third of all rows carry the smallest value,
        # so random draws frequently land on an uncuttable position
        values = np.concatenate(
            [np.zeros(3_000, dtype=np.int64),
             rng.integers(0, 10_000, size=6_000).astype(np.int64)]
        )
        rng.shuffle(values)
        cracked = StochasticCrackedColumn(values, variant="ddr", seed=11)
        for _ in range(25):
            low = int(rng.integers(0, 9_000))
            high = low + int(rng.integers(1, 1_000))
            assert set(cracked.search(low, high).tolist()) == reference(
                values, low, high
            )
        cracked.check_invariants()


class TestRobustness:
    def _sequential_costs(self, column, n_queries=60, width=200):
        costs = []
        position = 0
        for _ in range(n_queries):
            counters = CostCounters()
            column.search(position, position + width, counters)
            costs.append(counters.tuples_scanned + counters.tuples_moved)
            position += width
        return costs

    def test_extra_cuts_bound_piece_sizes(self, medium_values):
        cracked = StochasticCrackedColumn(
            medium_values, variant="ddr", seed=3
        )
        cracked.search(10_000, 11_000)
        threshold = int(len(medium_values) * 0.01)
        touched_pieces = [
            piece for piece in cracked.pieces()
            if piece.low is not None or piece.high is not None
        ]
        assert len(cracked.pieces()) >= 3
        # the pieces adjacent to the query bounds are no longer huge
        boundary_pieces = [cracked.index.piece_for_value(10_000),
                           cracked.index.piece_for_value(11_000)]
        for piece in boundary_pieces:
            assert piece.size <= max(threshold, 2)

    def test_sequential_pattern_cheaper_than_plain_cracking(self):
        """Under a sequential sweep, stochastic cracking avoids the linear tail.

        Plain cracking repeatedly re-partitions the single shrinking right
        piece (cost stays ~linear in what is left); DDR's auxiliary cuts keep
        every touched piece small, so the tail of the sweep is much cheaper.
        """
        from repro.core.cracking.cracked_column import CrackedColumn

        rng = np.random.default_rng(4)
        values = rng.integers(0, 50_000, size=50_000)
        plain = CrackedColumn(values)
        stochastic = StochasticCrackedColumn(
            values, variant="ddr", seed=4
        )
        plain_costs = self._sequential_costs(plain, n_queries=50, width=500)
        stochastic_costs = self._sequential_costs(stochastic, n_queries=50, width=500)
        # compare the tail of the sweep (skip the shared initialization)
        assert np.mean(stochastic_costs[10:]) < np.mean(plain_costs[10:])
