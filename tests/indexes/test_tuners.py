"""Unit tests for the online tuner and soft indexes."""

import pytest

from repro.columnstore.column import Column
from repro.columnstore.select import RangePredicate
from repro.cost.counters import CostCounters
from repro.indexes.online_tuner import OnlineIndexTuner
from repro.indexes.soft_index import SoftIndexManager


class TestOnlineTuner:
    def _column(self, rng, n=5_000):
        return Column(rng.integers(0, 10_000, size=n), name="key")

    def test_builds_index_after_enough_queries(self, rng):
        column = self._column(rng)
        tuner = OnlineIndexTuner(build_threshold_factor=1.0)
        predicate = RangePredicate(100, 200)
        queries_before_build = None
        for query_number in range(1, 200):
            tuner.select(column, predicate)
            if "key" in tuner.indexes:
                queries_before_build = query_number
                break
        assert queries_before_build is not None, "online tuner never built the index"
        assert queries_before_build > 1  # not immediate: it must observe first

    def test_results_correct_before_and_after_build(self, rng, reference):
        column = self._column(rng)
        expected = reference(column.values, 100, 200)
        tuner = OnlineIndexTuner(build_threshold_factor=1.0)
        for _ in range(100):
            positions = tuner.select(column, RangePredicate(100, 200))
            assert set(positions.tolist()) == expected

    def test_triggering_query_pays_build_cost(self, rng):
        column = self._column(rng)
        tuner = OnlineIndexTuner(build_threshold_factor=1.0)
        costs = []
        for _ in range(100):
            counters = CostCounters()
            tuner.select(column, RangePredicate(100, 200), counters)
            costs.append(counters.tuples_moved)
            if "key" in tuner.indexes:
                break
        assert costs[-1] >= len(column)  # the build moved the whole column

    def test_higher_threshold_builds_later(self, rng):
        column = self._column(rng)
        eager = OnlineIndexTuner(build_threshold_factor=1.0)
        lazy = OnlineIndexTuner(build_threshold_factor=5.0)
        eager_build = lazy_build = None
        for query_number in range(1, 500):
            eager.select(column, RangePredicate(100, 200))
            lazy.select(column, RangePredicate(100, 200))
            if eager_build is None and "key" in eager.indexes:
                eager_build = query_number
            if lazy_build is None and "key" in lazy.indexes:
                lazy_build = query_number
            if eager_build and lazy_build:
                break
        assert eager_build is not None and lazy_build is not None
        assert eager_build < lazy_build

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OnlineIndexTuner(build_threshold_factor=0)


class TestSoftIndexes:
    def test_builds_after_recommendation_threshold(self, rng, reference):
        column = Column(rng.integers(0, 1000, size=3000), name="key")
        manager = SoftIndexManager(recommendation_threshold=3)
        expected = reference(column.values, 50, 150)
        for query_number in range(1, 10):
            positions = manager.select(column, RangePredicate(50, 150))
            assert set(positions.tolist()) == expected
            if "key" in manager.indexes:
                break
        assert "key" in manager.indexes
        assert query_number == 3  # built exactly when the threshold was reached

    def test_build_charged_to_carrying_query(self, rng):
        column = Column(rng.integers(0, 1000, size=3000), name="key")
        manager = SoftIndexManager(recommendation_threshold=2)
        costs = []
        for _ in range(4):
            counters = CostCounters()
            manager.select(column, RangePredicate(0, 100), counters)
            costs.append(counters.tuples_moved + counters.comparisons)
        # the query that carried the build is far more expensive than the others
        assert max(costs[:2]) > 0
        assert costs[1] > 5 * costs[0]
        # once built, queries are cheap again
        assert costs[3] < costs[1] / 5

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SoftIndexManager(recommendation_threshold=0)
