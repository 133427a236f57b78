"""The adaptive-indexing benchmark harness (Graefe et al., TPCTC 2010).

The harness runs a set of strategies over the same column and the same
query workload, records per-query logical costs and wall-clock times, and
reports the benchmark's two metrics (initialization cost of the first query,
convergence point) plus total cost — everything the experiment scripts under
``benchmarks/`` need to regenerate the figures listed in EXPERIMENTS.md.

Two execution surfaces are offered: :meth:`run_strategy` drives a bare
strategy object (the historical micro-benchmark path), while
:meth:`run_in_engine` routes the same workload through a full
``Database`` session — planner, executor, table gate and access-path
locks included — so engine-level experiments (concurrent sessions,
DML-during-batch) report metrics comparable to the strategy-level runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columnstore.column import Column
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.cost.model import CostModel, DEFAULT_MAIN_MEMORY_MODEL
from repro.cost.stats import QueryStatistics, WorkloadStatistics
from repro.cost.timer import Timer
from repro.engine.database import Database
from repro.workloads.generators import RangeQuery
from repro.workloads.metrics import (
    convergence_point,
    initialization_overhead,
    robustness_ratio,
)


@dataclass
class StrategyRunResult:
    """Everything recorded for one strategy over one workload."""

    strategy: str
    statistics: WorkloadStatistics
    initialization_overhead: Optional[float] = None
    convergence_query: Optional[int] = None
    total_cost: float = 0.0
    total_seconds: float = 0.0
    final_nbytes: int = 0
    robustness: float = 1.0
    #: one-line physical state after the workload (partition/split counts …)
    final_structure: str = ""

    def summary_row(self) -> Dict[str, object]:
        """Flat record for tabular reports."""
        return {
            "strategy": self.strategy,
            "first_query_overhead_vs_scan": self.initialization_overhead,
            "convergence_query": self.convergence_query,
            "total_logical_cost": self.total_cost,
            "total_seconds": self.total_seconds,
            "auxiliary_bytes": self.final_nbytes,
            "robustness_max_over_median": self.robustness,
        }


@dataclass
class BenchmarkResult:
    """Results of one benchmark run across several strategies."""

    column_size: int
    query_count: int
    runs: Dict[str, StrategyRunResult] = field(default_factory=dict)
    scan_cost: float = 0.0
    full_index_cost: float = 0.0

    def summary_table(self) -> List[Dict[str, object]]:
        """One summary row per strategy, ordered by total cost."""
        rows = [run.summary_row() for run in self.runs.values()]
        return sorted(rows, key=lambda row: row["total_logical_cost"])

    def per_query_costs(self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL) -> Dict[str, List[float]]:
        """Per-query logical cost series per strategy (for the figures)."""
        return {
            name: run.statistics.per_query_cost(model)
            for name, run in self.runs.items()
        }

    def cumulative_costs(self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL) -> Dict[str, List[float]]:
        """Cumulative logical cost series per strategy."""
        return {
            name: run.statistics.cumulative_cost(model)
            for name, run in self.runs.items()
        }


class AdaptiveIndexingBenchmark:
    """Run several strategies over one column and one query sequence."""

    def __init__(
        self,
        values: Union[Column, np.ndarray],
        queries: Sequence[RangeQuery],
        cost_model: CostModel = DEFAULT_MAIN_MEMORY_MODEL,
        convergence_tolerance: float = 1.25,
        convergence_consecutive: int = 5,
    ) -> None:
        self.values = values.values if isinstance(values, Column) else np.asarray(values)
        self.queries = list(queries)
        if not self.queries:
            raise ValueError("the benchmark needs at least one query")
        self.cost_model = cost_model
        self.convergence_tolerance = convergence_tolerance
        self.convergence_consecutive = convergence_consecutive
        self._scan_cost = self._estimate_scan_cost()
        self._full_index_cost = self._estimate_full_index_cost()

    # -- reference costs -----------------------------------------------------------

    def _estimate_scan_cost(self) -> float:
        n = len(self.values)
        return self.cost_model.cost_of(tuples_scanned=n, comparisons=2 * n)

    def _estimate_full_index_cost(self) -> float:
        """Steady-state cost of one query on a full index (lookup + result scan)."""
        n = len(self.values)
        average_result = max(
            1,
            int(np.mean([q.width for q in self.queries]) / self._domain_width() * n),
        )
        log_n = max(1.0, np.log2(max(n, 2)))
        return self.cost_model.cost_of(
            tuples_scanned=average_result,
            comparisons=int(2 * log_n),
            random_accesses=2,
        )

    def _domain_width(self) -> float:
        if len(self.values) == 0:
            return 1.0
        width = float(self.values.max() - self.values.min())
        return width if width > 0 else 1.0

    @property
    def scan_cost(self) -> float:
        """Logical cost of answering one query with a full scan."""
        return self._scan_cost

    @property
    def full_index_cost(self) -> float:
        """Logical steady-state cost of one query on a full index."""
        return self._full_index_cost

    # -- running -----------------------------------------------------------------------

    def run_strategy(
        self, name: str, label: Optional[str] = None, **options
    ) -> StrategyRunResult:
        """Run the full query sequence against a fresh instance of one strategy.

        ``label`` names the run in the result (defaults to ``name``); distinct
        labels let the same strategy be compared at several configurations,
        e.g. partitioned cracking at different partition counts.
        """
        label = label or name
        strategy = create_strategy(name, self.values, **options)
        statistics = WorkloadStatistics(strategy=label)
        total_timer = Timer()
        with total_timer:
            for index, query in enumerate(self.queries):
                counters = CostCounters()
                timer = Timer()
                with timer:
                    positions = strategy.search(query.low, query.high, counters)
                statistics.append(
                    QueryStatistics(
                        query_index=index,
                        elapsed_seconds=timer.elapsed,
                        counters=counters,
                        result_count=len(positions),
                        strategy=label,
                        description=f"[{query.low}, {query.high})",
                    )
                )
        per_query = statistics.per_query_cost(self.cost_model)
        return StrategyRunResult(
            strategy=label,
            statistics=statistics,
            initialization_overhead=initialization_overhead(
                statistics, self._scan_cost, self.cost_model
            ),
            convergence_query=convergence_point(
                statistics,
                self._full_index_cost,
                tolerance=self.convergence_tolerance,
                consecutive=self.convergence_consecutive,
                model=self.cost_model,
            ),
            total_cost=sum(per_query),
            total_seconds=statistics.total_seconds,
            final_nbytes=strategy.nbytes,
            robustness=robustness_ratio(per_query) if per_query else 1.0,
            final_structure=strategy.structure_description,
        )

    def run_in_engine(
        self, mode: str, label: Optional[str] = None, **options
    ) -> StrategyRunResult:
        """Run the workload through a Database session (the engine front door).

        Builds a fresh single-table database, puts its key column under
        ``mode`` (any registered strategy; ``"scan"`` leaves it
        unindexed) and executes every query through the
        lock-aware session builder.  For a pure selection workload the
        recorded counters are identical to :meth:`run_strategy`'s — the
        engine dispatches to the same structures — so both surfaces feed
        the same summary tables.
        """
        label = label or f"engine:{mode}"
        database = Database(f"bench-{mode}")
        database.create_table("data", {"key": self.values})
        if mode != "scan":
            database.set_indexing("data", "key", mode, **options)
        statistics = WorkloadStatistics(strategy=label)
        total_timer = Timer()
        with total_timer, database.session(name=label) as session:
            for index, query in enumerate(self.queries):
                result = (
                    session.query("data").where("key", query.low, query.high).run()
                )
                statistics.append(
                    QueryStatistics(
                        query_index=index,
                        elapsed_seconds=result.elapsed_seconds,
                        counters=result.counters,
                        result_count=result.row_count,
                        strategy=label,
                        description=f"[{query.low}, {query.high})",
                    )
                )
        path = database.access_path("data", "key")
        per_query = statistics.per_query_cost(self.cost_model)
        return StrategyRunResult(
            strategy=label,
            statistics=statistics,
            initialization_overhead=initialization_overhead(
                statistics, self._scan_cost, self.cost_model
            ),
            convergence_query=convergence_point(
                statistics,
                self._full_index_cost,
                tolerance=self.convergence_tolerance,
                consecutive=self.convergence_consecutive,
                model=self.cost_model,
            ),
            total_cost=sum(per_query),
            total_seconds=statistics.total_seconds,
            final_nbytes=path.nbytes if path is not None else 0,
            robustness=robustness_ratio(per_query) if per_query else 1.0,
            final_structure=path.structure_description if path is not None else "",
        )

    def run(
        self,
        strategies: Iterable[str],
        options: Optional[Dict[str, dict]] = None,
    ) -> BenchmarkResult:
        """Run every strategy in ``strategies`` over the same workload."""
        options = options or {}
        result = BenchmarkResult(
            column_size=len(self.values),
            query_count=len(self.queries),
            scan_cost=self._scan_cost,
            full_index_cost=self._full_index_cost,
        )
        for name in strategies:
            result.runs[name] = self.run_strategy(name, **options.get(name, {}))
        return result

    def run_labeled(
        self, variants: Mapping[str, Tuple[str, dict]]
    ) -> BenchmarkResult:
        """Run labelled strategy variants: ``label -> (strategy name, options)``.

        Unlike :meth:`run`, the same strategy may appear several times under
        different labels (and option sets) in one result.
        """
        result = BenchmarkResult(
            column_size=len(self.values),
            query_count=len(self.queries),
            scan_cost=self._scan_cost,
            full_index_cost=self._full_index_cost,
        )
        for label, (name, variant_options) in variants.items():
            result.runs[label] = self.run_strategy(
                name, label=label, **dict(variant_options)
            )
        return result
