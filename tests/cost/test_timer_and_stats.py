"""Unit tests for the timer and the statistics containers."""

import time

import pytest

from repro.cost.counters import CostCounters
from repro.cost.model import CostModel
from repro.cost.stats import QueryStatistics, WorkloadStatistics
from repro.cost.timer import Timer


class TestTimer:
    def test_elapsed_positive(self):
        timer = Timer()
        with timer:
            time.sleep(0.001)
        assert timer.elapsed > 0
        assert timer.total == pytest.approx(timer.elapsed)

    def test_total_accumulates_across_entries(self):
        timer = Timer()
        for _ in range(3):
            with timer:
                pass
        assert timer.entries == 3
        assert timer.total >= timer.elapsed

    def test_zero_when_unused(self):
        timer = Timer()
        assert timer.entries == 0 and timer.total == timer.elapsed == 0.0

    def test_a_raising_block_is_timed_and_the_error_propagates(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            with timer:
                raise RuntimeError("inside the timed block")
        assert timer.entries == 1
        assert timer.total == timer.elapsed > 0


def _stats(costs):
    """Build WorkloadStatistics whose i-th query scanned costs[i] tuples."""
    workload = WorkloadStatistics(strategy="test")
    for index, scanned in enumerate(costs):
        workload.append(
            QueryStatistics(
                query_index=index,
                elapsed_seconds=0.001,
                counters=CostCounters(tuples_scanned=scanned),
                result_count=scanned,
            )
        )
    return workload


UNIT_MODEL = CostModel(name="unit", scan_weight=1.0, move_weight=0.0,
                       comparison_weight=0.0, random_access_weight=0.0)


class TestWorkloadStatistics:
    def test_len_and_iteration(self):
        workload = _stats([10, 20, 30])
        assert len(workload) == 3
        assert [q.result_count for q in workload] == [10, 20, 30]

    def test_cumulative_cost_monotone(self):
        workload = _stats([10, 20, 30])
        cumulative = workload.cumulative_cost(UNIT_MODEL)
        assert cumulative == [10, 30, 60]

    def test_first_query_cost(self):
        workload = _stats([100, 1, 1])
        assert workload.first_query_cost(UNIT_MODEL) == 100
        assert WorkloadStatistics().first_query_cost(UNIT_MODEL) is None

    def test_total_counters_sums(self):
        workload = _stats([5, 7])
        assert workload.total_counters().tuples_scanned == 12

    def test_convergence_query_found(self):
        workload = _stats([100, 80, 60, 10, 9, 8, 7, 6, 5, 4])
        point = workload.convergence_query(
            reference_cost=10, tolerance=1.0, model=UNIT_MODEL, consecutive=3
        )
        assert point == 3

    def test_convergence_requires_consecutive_run(self):
        workload = _stats([10, 100, 10, 10, 10, 10])
        point = workload.convergence_query(
            reference_cost=10, tolerance=1.0, model=UNIT_MODEL, consecutive=3
        )
        assert point == 2

    def test_convergence_never_reached_returns_none(self):
        workload = _stats([100, 100, 100])
        assert (
            workload.convergence_query(reference_cost=1, model=UNIT_MODEL) is None
        )

    def test_convergence_rejects_bad_arguments(self):
        workload = _stats([1])
        with pytest.raises(ValueError):
            workload.convergence_query(reference_cost=0)
        with pytest.raises(ValueError):
            workload.convergence_query(reference_cost=1, consecutive=0)
