"""Unit tests for the run set: sorted run generation and batched extraction."""

import numpy as np
import pytest

from repro.columnstore.bulk import binary_search_count, sort_comparisons
from repro.core.merging.runs import RunSet
from repro.cost.counters import CostCounters


def one_run(values):
    """A run set of a single run — the old stand-alone sorted partition."""
    values = np.asarray(values)
    return RunSet(values, run_size=max(1, len(values)))


class TestRunGeneration:
    def test_runs_cover_column_and_are_sorted(self, medium_values):
        runs = RunSet(medium_values, run_size=1000)
        assert len(runs) == len(medium_values)
        assert runs.run_count == 20
        # sortedness per run, and rowids map back to original values
        runs.check_invariants(medium_values)

    def test_ragged_last_run(self, rng):
        values = rng.integers(0, 1000, size=1050)
        runs = RunSet(values, run_size=100)
        assert runs.run_count == 11
        assert runs.live.tolist() == [100] * 10 + [50]
        runs.check_invariants(values)

    def test_default_run_size_sqrt(self, medium_values):
        runs = RunSet(medium_values)
        expected_runs = int(np.ceil(len(medium_values) / np.sqrt(len(medium_values))))
        assert abs(runs.run_count - expected_runs) <= 1

    def test_empty_column(self):
        runs = RunSet(np.empty(0, dtype=np.int64))
        assert len(runs) == 0 and runs.run_count == 0 and runs.nbytes == 0
        values, rowids = runs.extract_range(0, 10)
        assert len(values) == 0 and len(rowids) == 0

    def test_invalid_run_size(self, small_values):
        with pytest.raises(ValueError):
            RunSet(small_values, run_size=0)

    def test_run_generation_cost_single_pass(self, medium_values):
        counters = CostCounters()
        RunSet(medium_values, run_size=1000, counters=counters)
        n = len(medium_values)
        assert counters.tuples_scanned == n
        assert counters.tuples_moved == n
        # per-run sorts: n log(run_size), clearly below a full n log n sort
        assert counters.comparisons < n * np.log2(n)
        assert counters.comparisons >= n * np.log2(1000) * 0.9

    def test_run_generation_charges_are_the_sum_over_runs(self, rng):
        values = rng.integers(0, 1000, size=1050)
        counters = CostCounters()
        RunSet(values, run_size=100, counters=counters)
        assert counters == CostCounters(
            tuples_scanned=1050, tuples_moved=1050,
            comparisons=10 * sort_comparisons(100) + sort_comparisons(50),
            bytes_allocated=1050 * 16, pieces_created=11,
        )


class TestExtraction:
    def test_extract_range_removes_and_returns(self):
        runs = one_run([1, 3, 5, 7, 9])
        values, rowids = runs.extract_range(3, 8)
        assert np.array_equal(values, [3, 5, 7])
        assert np.array_equal(rowids, [1, 2, 3])
        assert len(runs) == 2 and runs.nbytes == 2 * 16

    def test_extract_range_empty_intersection(self):
        runs = one_run([1, 2, 3])
        values, rowids = runs.extract_range(10, 20)
        assert len(values) == 0
        assert len(runs) == 3
        values, _ = runs.extract_range(3, 2)  # inverted
        assert len(values) == 0 and len(runs) == 3

    def test_extract_unbounded(self):
        runs = one_run([1, 2, 3])
        values, _ = runs.extract_range(None, None)
        assert np.array_equal(values, [1, 2, 3])
        assert len(runs) == 0 and runs.run_count == 0

    def test_blocks_come_in_run_order_with_base_rowids(self):
        base = np.array([4, 2, 6, 5, 3, 1, 2, 9])
        runs = RunSet(base, run_size=3)  # runs: [2 4 6] [1 3 5] [2 9]
        values, rowids = runs.extract_range(2, 6)
        assert values.tolist() == [2, 4, 3, 5, 2]
        assert rowids.tolist() == [1, 0, 4, 3, 6]
        assert runs.live.tolist() == [1, 1, 1]

    def test_float_bound_between_integer_keys(self):
        runs = RunSet(np.array([3, 1, 2, 2, 3, 1]), run_size=3)
        values, _ = runs.extract_range(1.5, 2.5)
        assert values.tolist() == [2, 2]

    def test_rank_of_the_lower_bound(self, medium_values):
        runs = RunSet(medium_values, run_size=700)
        for low, high in [(40_000, 41_000), (0, 5), (99_000.5, None), (None, 40_000)]:
            _, _, rank = runs.extract_ranked(low, high)
            assert rank == (0 if low is None else int((medium_values < low).sum()))

    def test_searches_are_charged_on_what_each_run_still_holds(self):
        base = np.arange(24)
        runs = RunSet(base, run_size=8)
        counters = CostCounters()
        runs.extract_range(0, 12, counters)  # empties run 0, halves run 1
        assert counters.comparisons == 3 * 2 * binary_search_count(8)
        assert counters.random_accesses == 6
        assert counters.tuples_scanned == counters.tuples_moved == 12
        assert runs.live.tolist() == [0, 4, 8] and runs.run_count == 2
        counters = CostCounters()
        runs.extract_range(30, 40, counters)  # finds nothing, still searches
        assert counters.comparisons == 2 * (
            binary_search_count(4) + binary_search_count(8))
        assert counters.random_accesses == 4
        assert counters.tuples_moved == 0
