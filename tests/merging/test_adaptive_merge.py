"""Unit tests for the adaptive merging index."""

import numpy as np

from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.cost.counters import CostCounters


class TestCorrectness:
    def test_results_match_reference(self, medium_values, reference):
        index = AdaptiveMergingIndex(medium_values, run_size=1000)
        rng = np.random.default_rng(0)
        for _ in range(40):
            low = int(rng.integers(0, 90_000))
            high = low + int(rng.integers(1, 15_000))
            assert set(index.search(low, high).tolist()) == reference(
                medium_values, low, high
            )
            index.check_invariants()

    def test_unbounded_and_empty_queries(self, small_values, reference):
        index = AdaptiveMergingIndex(small_values, run_size=50)
        assert set(index.search(None, 50).tolist()) == reference(small_values, None, 50)
        assert set(index.search(50, None).tolist()) == reference(small_values, 50, None)
        assert set(index.search(None, None).tolist()) == set(range(len(small_values)))
        assert len(index.search(1000, 2000)) == 0

    def test_empty_column(self):
        index = AdaptiveMergingIndex(np.empty(0, dtype=np.int64))
        assert len(index.search(0, 10)) == 0

    def test_search_rows_come_in_value_order(self, small_values):
        index = AdaptiveMergingIndex(small_values, run_size=64)
        values = small_values[index.search(10, 60)]
        # results come from the sorted final partition, so they are sorted
        assert np.all(np.diff(values) >= 0)


class TestAdaptiveBehaviour:
    def test_first_query_generates_runs(self, medium_values):
        index = AdaptiveMergingIndex(medium_values, run_size=2000)
        assert not index.initialized
        counters = CostCounters()
        index.search(0, 1000, counters)
        assert index.initialized
        assert index.run_count > 0
        # run generation sorted every run: comparisons ~ n log(run_size)
        assert counters.comparisons > len(medium_values)

    def test_merged_range_never_touches_runs_again(self, medium_values):
        index = AdaptiveMergingIndex(medium_values, run_size=2000)
        index.search(10_000, 20_000)
        runs_before = index.runs.live.tolist()
        counters = CostCounters()
        index.search(12_000, 18_000, counters)  # fully inside the merged range
        runs_after = index.runs.live.tolist()
        assert runs_before == runs_after
        assert counters.tuples_moved == 0

    def test_only_queried_ranges_merged(self, medium_values):
        index = AdaptiveMergingIndex(medium_values, run_size=2000)
        index.search(10_000, 15_000)
        merged = index.merged_count
        total = len(medium_values)
        assert 0 < merged < total / 2
        assert not index.fully_merged

    def test_full_domain_query_merges_everything(self, medium_values):
        index = AdaptiveMergingIndex(medium_values, run_size=2000)
        index.search(None, None)
        assert index.fully_merged
        assert index.merged_count == len(medium_values)
        assert np.all(np.diff(medium_values[index.search(None, None)]) >= 0)
        index.check_invariants()

    def test_converges_faster_than_cracking(self, medium_values):
        """Adaptive merging reaches index-like per-query cost in fewer queries."""
        from repro.core.cracking.cracked_column import CrackedColumn

        rng = np.random.default_rng(5)
        queries = [
            (int(low), int(low) + 2000)
            for low in rng.integers(0, 95_000, size=300)
        ]
        merging = AdaptiveMergingIndex(medium_values, run_size=2000)
        cracking = CrackedColumn(medium_values)

        def cost_series(index_object):
            costs = []
            for low, high in queries:
                counters = CostCounters()
                index_object.search(low, high, counters)
                costs.append(
                    counters.tuples_scanned + counters.tuples_moved
                    + counters.comparisons
                )
            return costs

        merging_costs = cost_series(merging)
        cracking_costs = cost_series(cracking)
        threshold = 5_000  # "near index cost" for a 2k-wide result
        merging_converged = next(
            (i for i, c in enumerate(merging_costs) if c < threshold), len(queries)
        )
        cracking_converged = next(
            (i for i, c in enumerate(cracking_costs) if c < threshold), len(queries)
        )
        assert merging_converged < cracking_converged

    def test_first_query_more_expensive_than_cracking(self, medium_values):
        from repro.core.cracking.cracked_column import CrackedColumn

        merging_counters = CostCounters()
        AdaptiveMergingIndex(medium_values, run_size=2000).search(0, 1000, merging_counters)
        cracking_counters = CostCounters()
        CrackedColumn(medium_values).search(0, 1000, cracking_counters)
        assert merging_counters.comparisons > cracking_counters.comparisons
