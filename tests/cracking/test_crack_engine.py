"""Unit tests for the crack-in-two / crack-in-three kernels."""

import numpy as np
import pytest

from repro.core.cracking.cracker_index import CrackerIndex
from repro.core.cracking.crack_engine import crack_range, crack_value
from repro.cost.counters import CostCounters


def make_column(rng, n=1000, domain=500):
    values = rng.integers(0, domain, size=n).astype(np.int64)
    rowids = np.arange(n, dtype=np.int64)
    return values, rowids, CrackerIndex(n)


def assert_piece_invariants(values, index):
    for piece in index.pieces():
        segment = values[piece.start:piece.end]
        if len(segment) == 0:
            continue
        if piece.low is not None:
            assert segment.min() >= piece.low
        if piece.high is not None:
            assert segment.max() < piece.high


class TestCrackValue:
    def test_crack_value_partitions(self, rng):
        values, rowids, index = make_column(rng)
        original = values.copy()
        split = crack_value(values, rowids, index, 250)
        assert np.all(values[:split] < 250)
        assert np.all(values[split:] >= 250)
        assert np.array_equal(original[rowids], values)
        assert index.position_of(250) == split

    def test_crack_value_existing_boundary_free(self, rng):
        values, rowids, index = make_column(rng)
        crack_value(values, rowids, index, 250)
        counters = CostCounters()
        crack_value(values, rowids, index, 250, counters)
        assert counters.tuples_moved == 0

    def test_multiple_cracks_refine(self, rng):
        values, rowids, index = make_column(rng)
        for pivot in [100, 400, 250, 50, 350]:
            crack_value(values, rowids, index, pivot)
        assert index.piece_count == 6
        assert_piece_invariants(values, index)


class TestCrackRange:
    def test_crack_range_both_bounds(self, rng, reference):
        values, rowids, index = make_column(rng)
        base = values.copy()
        start, end = crack_range(values, rowids, index, 100, 200)
        assert set(rowids[start:end].tolist()) == reference(base, 100, 200)
        assert_piece_invariants(values, index)

    def test_crack_range_uses_crack_in_three_first_time(self, rng):
        values, rowids, index = make_column(rng)
        crack_range(values, rowids, index, 100, 200)
        # one crack-in-three creates two boundaries
        assert index.piece_count == 3

    def test_crack_range_unbounded_sides(self, rng, reference):
        values, rowids, index = make_column(rng)
        base = values.copy()
        start, end = crack_range(values, rowids, index, None, 200)
        assert set(rowids[start:end].tolist()) == reference(base, None, 200)
        start, end = crack_range(values, rowids, index, 300, None)
        assert set(rowids[start:end].tolist()) == reference(base, 300, None)
        start, end = crack_range(values, rowids, index, None, None)
        assert (start, end) == (0, len(values))

    def test_crack_range_rejects_inverted(self, rng):
        values, rowids, index = make_column(rng)
        with pytest.raises(ValueError):
            crack_range(values, rowids, index, 200, 100)

    def test_crack_range_empty_result(self, rng):
        values, rowids, index = make_column(rng, domain=100)
        start, end = crack_range(values, rowids, index, 500, 600)
        assert start == end

    def test_crack_range_zero_width(self, rng):
        values, rowids, index = make_column(rng)
        start, end = crack_range(values, rowids, index, 100, 100)
        assert start == end

    def test_repeated_query_no_further_movement(self, rng):
        values, rowids, index = make_column(rng)
        crack_range(values, rowids, index, 100, 200)
        counters = CostCounters()
        crack_range(values, rowids, index, 100, 200, counters)
        assert counters.tuples_moved == 0

    def test_overlapping_queries_share_boundaries(self, rng, reference):
        values, rowids, index = make_column(rng)
        base = values.copy()
        crack_range(values, rowids, index, 100, 300)
        start, end = crack_range(values, rowids, index, 200, 400)
        assert set(rowids[start:end].tolist()) == reference(base, 200, 400)
        assert index.piece_count == 5  # boundaries at 100, 200, 300, 400
        assert_piece_invariants(values, index)

    def test_per_query_cost_decreases_over_sequence(self, rng):
        values, rowids, index = make_column(rng, n=20_000, domain=20_000)
        costs = []
        query_rng = np.random.default_rng(7)
        for _ in range(100):
            low = int(query_rng.integers(0, 19_000))
            counters = CostCounters()
            crack_range(values, rowids, index, low, low + 1000, counters)
            costs.append(counters.tuples_scanned + counters.tuples_moved)
        # later queries touch far less data than the first one
        assert np.mean(costs[-10:]) < np.mean(costs[:3]) / 5


class EventOrderCounters(CostCounters):
    """Counters that additionally log the order of recording calls."""

    def __init__(self):
        super().__init__()
        self.events = []

    def record_comparisons(self, count):
        self.events.append("comparisons")
        super().record_comparisons(count)

    def record_move(self, count):
        self.events.append("move")
        super().record_move(count)

    def record_scan(self, count):
        self.events.append("scan")
        super().record_scan(count)

    def record_pieces(self, count=1):
        self.events.append("pieces")
        super().record_pieces(count)


class TestCrackInThreeAccounting:
    def test_lookup_charged_before_partitioning(self, rng):
        """Regression: the crack-in-three branch used to charge the piece
        lookup only after partition_three_way, so a mid-query counter
        snapshot attributed navigation cost to data movement."""
        values, rowids, index = make_column(rng)
        counters = EventOrderCounters()
        # both bounds inside the single initial piece -> crack-in-three
        crack_range(values, rowids, index, 100, 200, counters)
        assert index.piece_count == 3
        assert counters.pieces_created == 2
        movement_events = [
            i for i, e in enumerate(counters.events) if e in ("move", "scan")
        ]
        first_lookup = counters.events.index("comparisons")
        assert movement_events, "three-way partition must record movement"
        assert first_lookup < movement_events[0], (
            "piece-lookup comparisons must be charged before the physical "
            f"partition (events: {counters.events})"
        )

    def test_crack_in_three_total_charges_unchanged(self, rng):
        """Moving the charge must not change the totals."""
        values_a, rowids_a, index_a = make_column(rng)
        counters = CostCounters()
        crack_range(values_a, rowids_a, index_a, 100, 200, counters)
        assert counters.pieces_created == 2
        assert counters.comparisons > 0
        assert counters.tuples_moved > 0
