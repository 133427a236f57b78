"""Unit tests for the benchmark metrics and the benchmark harness."""

import numpy as np
import pytest

from repro.cost.counters import CostCounters
from repro.cost.model import CostModel
from repro.cost.stats import QueryStatistics, WorkloadStatistics
from repro.core.strategies import create_strategy
from repro.engine.database import Database
from repro.workloads.benchmark import AdaptiveIndexingBenchmark, run_operations
from repro.workloads.generators import WorkloadSpec, random_workload
from repro.workloads.metrics import (
    convergence_point,
    cost_crossover,
    initialization_overhead,
    robustness_ratio,
)
from repro.workloads.updates import UpdateOperation, write_workload

UNIT_MODEL = CostModel(name="unit", scan_weight=1.0, move_weight=0.0,
                       comparison_weight=0.0, random_access_weight=0.0)


def stats_from_costs(costs):
    workload = WorkloadStatistics(strategy="x")
    for index, cost in enumerate(costs):
        workload.append(
            QueryStatistics(
                query_index=index,
                elapsed_seconds=0.0,
                counters=CostCounters(tuples_scanned=cost),
            )
        )
    return workload


class TestMetrics:
    def test_initialization_overhead(self):
        workload = stats_from_costs([300, 100, 100])
        assert initialization_overhead(workload, scan_cost=100, model=UNIT_MODEL) == 3.0
        assert initialization_overhead(WorkloadStatistics(), 100, UNIT_MODEL) is None
        with pytest.raises(ValueError):
            initialization_overhead(workload, scan_cost=0)

    def test_convergence_point(self):
        workload = stats_from_costs([100, 50, 20, 11, 10, 10, 10, 10, 10])
        assert convergence_point(workload, full_index_cost=10, tolerance=1.1,
                                 consecutive=3, model=UNIT_MODEL) == 3

    def test_cost_crossover(self):
        assert cost_crossover([10, 20, 30], [15, 22, 40]) == 0
        assert cost_crossover([20, 30, 35], [10, 25, 40]) == 2
        assert cost_crossover([20, 30], [10, 15]) is None

    def test_robustness_ratio(self):
        assert robustness_ratio([10, 10, 10]) == 1.0
        assert robustness_ratio([10, 10, 100]) == 10.0
        assert robustness_ratio([0, 0, 5]) == float("inf")
        with pytest.raises(ValueError):
            robustness_ratio([])


class TestBenchmarkHarness:
    @pytest.fixture(scope="class")
    def harness(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 50_000, size=20_000)
        spec = WorkloadSpec(domain_low=0, domain_high=50_000, query_count=120,
                            selectivity=0.02, seed=1)
        return AdaptiveIndexingBenchmark(values, random_workload(spec))

    def test_requires_queries(self):
        with pytest.raises(ValueError):
            AdaptiveIndexingBenchmark(np.arange(10), [])

    def test_reference_costs_sensible(self, harness):
        assert harness.scan_cost > harness.full_index_cost

    def test_run_strategy_produces_full_series(self, harness):
        run = harness.run_strategy("cracking")
        assert len(run.statistics) == 120
        assert run.total_cost > 0
        assert run.initialization_overhead is not None
        assert run.summary_row()["strategy"] == "cracking"

    def test_run_many_strategies(self, harness):
        result = harness.run(["scan", "cracking", "sort-first"])
        assert set(result.runs) == {"scan", "cracking", "sort-first"}
        table = result.summary_table()
        assert len(table) == 3
        series = result.per_query_costs()
        assert all(len(v) == 120 for v in series.values())
        cumulative = result.cumulative_costs()
        assert all(len(v) == 120 for v in cumulative.values())

    def test_benchmark_shape_scan_never_converges(self, harness):
        result = harness.run(["scan", "cracking", "sort-first"])
        assert result.runs["scan"].convergence_query is None
        # sort-first pays everything on query 0 and is converged right after
        assert result.runs["sort-first"].convergence_query in (0, 1)
        # cracking does not reach strict full-index cost within 120 queries,
        # but its steady-state per-query cost is already far below a scan
        cracking_tail = np.mean(
            result.runs["cracking"].statistics.per_query_cost()[-20:]
        )
        assert cracking_tail < harness.scan_cost / 10

    def test_benchmark_shape_initialization_ordering(self, harness):
        """Scan ~1x, cracking a small multiple, sort-first the largest."""
        result = harness.run(["scan", "cracking", "sort-first"])
        scan = result.runs["scan"].initialization_overhead
        cracking = result.runs["cracking"].initialization_overhead
        sort_first = result.runs["sort-first"].initialization_overhead
        assert scan == pytest.approx(1.0, rel=0.3)
        assert scan < cracking < sort_first

    def test_strategy_options_forwarded(self, harness):
        run = harness.run_strategy("adaptive-merging", run_size=500)
        assert run.total_cost > 0

    def test_labelled_variants_compare_one_strategy_with_itself(self, harness):
        result = harness.run({
            f"p{count}": ("partitioned-cracking", {"partitions": count})
            for count in (2, 4)
        })
        assert list(result.runs) == ["p2", "p4"]
        assert result.runs["p2"].strategy == "p2"
        assert result.runs["p4"].path.partition_count == 4
        assert (result.runs["p2"].statistics.answers_crc
                == result.runs["p4"].statistics.answers_crc)


class TestRunOperations:
    """The one measuring loop: same stream, either surface, same answers."""

    ROWS = 4_000

    @pytest.fixture(scope="class")
    def values(self):
        return np.random.default_rng(3).integers(0, 50_000, size=self.ROWS)

    @pytest.fixture(scope="class")
    def stream(self):
        spec = WorkloadSpec(domain_low=0, domain_high=50_000, query_count=25,
                            selectivity=0.02, seed=4)
        return write_workload(spec, writes=100)

    def through_a_session(self, values, operations, mode, options=(), **kwargs):
        database = Database("surface")
        database.create_table("data", {"key": values})
        database.set_indexing("data", "key", mode, **dict(options))
        with database.session() as session:
            statistics = run_operations(
                session, operations, mode, rows=len(values), **kwargs
            )
        database.close()
        return statistics

    def test_a_selection_stream_costs_the_same_on_both_surfaces(self, values):
        spec = WorkloadSpec(domain_low=0, domain_high=50_000, query_count=30,
                            selectivity=0.02, seed=1)
        queries = random_workload(spec)
        bare = run_operations(create_strategy("cracking", values), queries, "bare")
        engine = self.through_a_session(values, queries, "cracking")
        assert len(bare) == len(engine) == 30
        assert [q.counters for q in bare] == [q.counters for q in engine]
        assert bare.answers_crc == engine.answers_crc != 0
        assert bare.update_count == engine.update_count == 0
        assert bare.wall_seconds >= bare.total_seconds > 0

    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    def test_writes_reach_both_surfaces_with_the_same_victims(self, values, stream,
                                                              policy):
        # four writes per query: at one merge per query the gradual column
        # answers more of them from its queues
        options = {"policy": policy, "merge_batch": 1}
        bare = run_operations(
            create_strategy("updatable-cracking", values, **options), stream,
            victim_seed=9,
        )
        engine = self.through_a_session(
            values, stream, "updatable-cracking", options, victim_seed=9
        )
        assert bare.update_count == engine.update_count == 100
        assert len(bare) == len(engine) == 25
        assert bare.answers_crc == engine.answers_crc
        assert [q.result_count for q in bare] == [q.result_count for q in engine]
        other_victims = run_operations(
            create_strategy("updatable-cracking", values, **options), stream,
            victim_seed=10,
        )
        assert other_victims.answers_crc != bare.answers_crc

    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    def test_the_answers_match_a_scan_over_the_same_writes(self, values, stream, policy):
        cracked = run_operations(
            create_strategy("updatable-cracking", values, policy=policy, merge_batch=1),
            stream, victim_seed=9,
        )
        scanned = self.through_a_session(values, stream, "scan", victim_seed=9)
        assert cracked.answers_crc == scanned.answers_crc

    def test_a_list_of_queries_is_one_batch(self, values):
        spec = WorkloadSpec(domain_low=0, domain_high=50_000, query_count=8,
                            selectivity=0.05, seed=2)
        queries = random_workload(spec)
        one_by_one = self.through_a_session(values, queries, "scan")
        batched = self.through_a_session(values, [queries], "scan")
        assert len(batched) == 8
        assert batched.answers_crc == one_by_one.answers_crc
        assert [q.counters for q in batched] == [q.counters for q in one_by_one]

    def test_a_write_without_a_live_row_is_skipped(self):
        stream = [UpdateOperation(kind="delete"),
                  UpdateOperation(kind="insert", value=5.0),
                  UpdateOperation(kind="delete"),
                  UpdateOperation(kind="delete")]
        strategy = create_strategy("updatable-cracking", np.arange(0))
        assert run_operations(strategy, stream).update_count == 2
