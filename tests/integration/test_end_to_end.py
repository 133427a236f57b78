"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import Database, available_strategies, create_strategy
from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.cost.counters import CostCounters
from repro.engine.query import Query
from repro.workloads.benchmark import AdaptiveIndexingBenchmark, run_operations
from repro.workloads.generators import (
    WorkloadSpec,
    generate_column_data,
    random_workload,
    sequential_workload,
)
from repro.workloads.tpch_like import (
    TPCHLikeConfig,
    build_database,
    shipping_priority_queries,
)
from repro.workloads.updates import mixed_update_workload


class TestLibraryEntryPoints:
    def test_package_exports(self):
        import repro

        assert repro.__version__
        assert "cracking" in available_strategies()

    def test_adaptive_index_quickstart(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10_000, size=30_000)
        index, counters = create_strategy("cracking", values), CostCounters()
        positions = index.search(1_000, 2_000, counters)
        assert counters.tuples_moved > 0  # cracked as a side effect
        assert sorted(values[positions]) == sorted(
            v for v in values if 1_000 <= v < 2_000
        )


class TestDatabaseLifecycle:
    def test_mixed_physical_design(self, rng):
        """One table, different indexing modes per column, all answers agree."""
        database = Database("mixed")
        size = 10_000
        database.create_table(
            "facts",
            {
                "a": rng.integers(0, 10_000, size=size).astype(np.int64),
                "b": rng.integers(0, 10_000, size=size).astype(np.int64),
                "c": rng.integers(0, 10_000, size=size).astype(np.int64),
                "d": rng.integers(0, 10_000, size=size).astype(np.int64),
            },
        )
        database.set_indexing("facts", "a", "cracking")
        database.set_indexing("facts", "b", "adaptive-merging")
        database.set_indexing("facts", "c", "full-index")
        # column d stays scan-only
        with database.session() as session:
            for column in "abcd":
                values = database.table("facts")[column].values
                expected = set(np.flatnonzero((values >= 2000) & (values < 4000)).tolist())
                result = session.execute(Query.range_query("facts", column, 2000, 4000))
                assert set(result.positions.tolist()) == expected
        report = database.physical_design_report()
        assert {r["mode"] for r in report} == {"cracking", "adaptive-merging", "full-index"}

    def test_tpch_like_workload_with_sideways_cracking(self):
        config = TPCHLikeConfig(fact_rows=20_000, seed=3)
        scan_db = build_database(config)
        sideways_db = build_database(config)
        sideways_db.set_indexing("lineorder", "orderdate", "sideways-cracking")
        queries = shipping_priority_queries(config, query_count=30, seed=4)
        with scan_db.session() as session:
            scan_stats = run_operations(session, queries, "scan")
        with sideways_db.session() as session:
            sideways_stats = run_operations(session, queries, "sideways")
        # identical answers
        for scan_query, sideways_query in zip(scan_stats, sideways_stats):
            assert scan_query.result_count == sideways_query.result_count
        # sideways cracking avoids the per-query random access of late
        # reconstruction over scanned positions
        assert (
            sideways_stats.total_counters().random_accesses
            < scan_stats.total_counters().random_accesses
        )

    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    def test_updatable_column_full_cycle(self, rng, policy):
        base = rng.integers(0, 1000, size=5_000)
        # one update per query: the gradual budget of one falls behind
        column = UpdatableCrackedColumn(base, policy=policy, merge_batch=1)
        workload = mixed_update_workload(
            WorkloadSpec(domain_low=0, domain_high=1000, query_count=50, seed=1),
            updates_per_query=1.0,
        )
        live_rowids = set(range(len(base)))
        for operation in workload:
            if operation.kind == "insert":
                live_rowids.add(column.insert(operation.value))
            elif operation.kind == "delete" and live_rowids:
                victim = next(iter(live_rowids))
                column.delete(victim)
                live_rowids.discard(victim)
            else:
                result = column.search(operation.query.low, operation.query.high)
                assert set(result.tolist()).issubset(live_rowids)
        column.check_invariants()


class TestBenchmarkIntegration:
    def test_full_benchmark_small(self):
        """A miniature end-to-end run of the adaptive-indexing benchmark."""
        values = generate_column_data(10_000, 0, 100_000, seed=0)
        spec = WorkloadSpec(domain_low=0, domain_high=100_000, query_count=80,
                            selectivity=0.02, seed=2)
        benchmark = AdaptiveIndexingBenchmark(values, random_workload(spec))
        result = benchmark.run(
            ["scan", "sort-first", "cracking", "adaptive-merging", "hybrid-crack-sort"]
        )
        table = result.summary_table()
        assert len(table) == 5
        # the canonical qualitative shape of the benchmark:
        runs = result.runs
        assert runs["scan"].initialization_overhead == pytest.approx(1.0, rel=0.3)
        assert (
            runs["cracking"].initialization_overhead
            < runs["adaptive-merging"].initialization_overhead
        )
        assert runs["scan"].convergence_query is None
        assert runs["sort-first"].convergence_query in (0, 1)
        # every adaptive strategy ends up answering queries at a small
        # fraction of the scan cost, even if strict full-index convergence
        # takes more than 80 queries
        for adaptive in ("cracking", "adaptive-merging", "hybrid-crack-sort"):
            tail = np.mean(runs[adaptive].statistics.per_query_cost()[-15:])
            assert tail < benchmark.scan_cost / 10
        # cumulative cost of cracking beats scanning over the whole workload
        cumulative = result.cumulative_costs()
        assert cumulative["cracking"][-1] < cumulative["scan"][-1]

    def test_sequential_pattern_benchmark(self):
        """Sequential workloads: stochastic cracking stays ahead of plain cracking."""
        values = generate_column_data(20_000, 0, 100_000, seed=1)
        spec = WorkloadSpec(domain_low=0, domain_high=100_000, query_count=60,
                            selectivity=0.01, seed=3)
        benchmark = AdaptiveIndexingBenchmark(values, sequential_workload(spec))
        result = benchmark.run(["cracking", "stochastic-cracking"])
        assert (
            result.runs["stochastic-cracking"].total_cost
            <= result.runs["cracking"].total_cost
        )
