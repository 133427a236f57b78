"""The adaptive-indexing benchmark harness (Graefe et al., TPCTC 2010).

:func:`run_operations` is the one measuring loop of the repository: it
replays an operation stream — range queries, inserts, deletes, updates,
query batches — against either a bare strategy object or a ``Database``
session and records per-query logical costs and wall-clock times.
:class:`AdaptiveIndexingBenchmark` runs several strategies over one column
and one stream through it and reports the benchmark's two metrics
(initialization cost of the first query, convergence point) plus total
cost.  The CLI's ``compare`` / ``updates`` / ``demo`` and every row of the
figure table in ``benchmarks/figures.py`` measure through here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.columnstore.column import Column
from repro.core.access_path import SearchStrategy
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.cost.model import CostModel, DEFAULT_MAIN_MEMORY_MODEL
from repro.cost.stats import QueryStatistics, WorkloadStatistics
from repro.cost.timer import Timer
from repro.engine.executor import QueryResult
from repro.engine.query import Query
from repro.engine.session import Session
from repro.workloads.generators import RangeQuery
from repro.workloads.metrics import (
    convergence_point,
    initialization_overhead,
    robustness_ratio,
)
from repro.workloads.updates import UpdateOperation

def stats_snapshot(column, *attributes: str) -> Dict[str, int]:
    """Atomically read a strategy's shared statistics counters.

    Statistics like ``queries_processed`` / ``merges_performed`` are declared
    ``@guarded_by(..., "_stats_lock")``: with a parallel fan-out column pool
    workers update them under the object's stats lock, so reading them bare
    from the driver thread is a data race — individually torn reads, and
    multi-attribute snapshots that mix two moments.  All requested reads
    happen under one acquisition of the object's ``_stats_lock``; an object
    without one is a single-threaded structure and is read directly.
    """
    lock = getattr(column, "_stats_lock", None)
    if lock is None:
        return {name: getattr(column, name) for name in attributes}
    with lock:
        return {name: getattr(column, name) for name in attributes}


def run_operations(
    target: Union[SearchStrategy, Session],
    operations: Iterable[object],
    label: str = "",
    *,
    table: str = "data",
    column: str = "key",
    rows: Optional[int] = None,
    victim_seed: int = 0,
) -> WorkloadStatistics:
    """Replay ``operations`` against a strategy or a session, one at a time.

    An operation is a :class:`RangeQuery` (on a session: a selection on
    ``table.column``), an engine :class:`Query`, a list of either (one
    ``Session.execute_many`` batch; sessions only), or an
    :class:`UpdateOperation`.  Deletes and updates name no row: the victim
    is drawn with ``victim_seed`` from the live rowids — ``rows`` base rows
    (default: a strategy's length, none of a session's table) plus what the
    stream inserted — and skipped when none is left.  Only the call into the
    target is timed.

    Returns one :class:`QueryStatistics` per query plus the write count, the
    wall-clock over all operations and a checksum of the answers as row sets.
    """
    session = target if isinstance(target, Session) else None
    statistics = WorkloadStatistics(strategy=label)
    rng = np.random.default_rng(victim_seed)
    if rows is None:
        rows = len(target) if session is None else 0
    live = list(range(rows))
    timer = Timer()
    for operation in operations:
        kind, queries, value = "query", [operation], None
        if isinstance(operation, UpdateOperation):
            kind, queries, value = operation.kind, [operation.query], operation.value
        elif not isinstance(operation, (RangeQuery, Query)):
            kind, queries = "batch", list(operation)
        if kind in ("delete", "update"):
            if not live:
                continue
            victim = live.pop(int(rng.integers(0, len(live))))
        elif session is not None and kind in ("query", "batch"):
            queries = [
                Query.range_query(table, column, query.low, query.high)
                if isinstance(query, RangeQuery) else query
                for query in queries
            ]
        with timer:
            if kind == "batch":
                results = session.execute_many(queries)
            elif kind == "query" and session is not None:
                results = [session.execute(queries[0])]
            elif kind == "query":
                counters = CostCounters()
                positions = target.search(queries[0].low, queries[0].high, counters)
            elif kind == "insert":
                live.append(session.insert_row(table, {column: value})
                            if session is not None else target.insert(value))
            elif kind == "delete":
                if session is not None:
                    session.delete_row(table, victim)
                else:
                    target.delete(victim)
            else:
                live.append(session.update_row(table, victim, {column: value})
                            if session is not None else target.update(victim, value))
        if kind not in ("query", "batch"):
            statistics.update_count += 1
            continue
        if session is None:
            results = [QueryResult(positions, counters=counters)]
        for query, result in zip(queries, results):
            statistics.answers_crc = zlib.crc32(
                np.sort(result.positions).tobytes(), statistics.answers_crc
            )
            statistics.append(QueryStatistics(
                query_index=len(statistics),
                # a batch is one timed call: each query keeps the engine's own time
                elapsed_seconds=(result.elapsed_seconds if kind == "batch"
                                 else timer.elapsed),
                counters=result.counters,
                result_count=result.row_count,
                strategy=label,
                description=(query.description if session is not None
                             else f"[{query.low}, {query.high})"),
            ))
    statistics.wall_seconds = timer.total
    return statistics


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
    #: the strategy that answered the run, closed: structure counters are
    #: read off it afterwards
    path: Optional[SearchStrategy] = None

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


class AdaptiveIndexingBenchmark:
    """Run several strategies over one column and one operation stream."""

    def __init__(
        self,
        values: Union[Column, np.ndarray],
        operations: Iterable[object],
        cost_model: CostModel = DEFAULT_MAIN_MEMORY_MODEL,
        convergence_tolerance: float = 1.25,
        convergence_consecutive: int = 5,
        victim_seed: int = 0,
    ) -> None:
        self.values = values.values if isinstance(values, Column) else np.asarray(values)
        self.operations = list(operations)
        #: the range queries of the stream (the reference costs average them)
        self.queries = [
            query for query in (
                op.query if isinstance(op, UpdateOperation) else op
                for op in self.operations
            ) if isinstance(query, RangeQuery)
        ]
        if not self.queries:
            raise ValueError("the benchmark needs at least one query")
        self.cost_model = cost_model
        self.convergence_tolerance = convergence_tolerance
        self.convergence_consecutive = convergence_consecutive
        self.victim_seed = victim_seed
        #: logical cost of answering one query with a full scan
        self.scan_cost = cost_model.cost_of(
            tuples_scanned=len(self.values), comparisons=2 * len(self.values)
        )
        #: logical steady-state cost of one query on a full index
        self.full_index_cost = self._estimate_full_index_cost()

    # -- reference costs -----------------------------------------------------------

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
        span = self.values.max() - self.values.min()
        return float(span) if span > 0 else 1.0

    # -- running -----------------------------------------------------------------------

    def run_strategy(
        self, name: str, label: Optional[str] = None, **options
    ) -> StrategyRunResult:
        """Run the stream against a fresh instance of one strategy.

        ``label`` names the run in the result (defaults to ``name``); distinct
        labels let the same strategy be compared at several configurations,
        e.g. partitioned cracking at different partition counts.
        """
        strategy = create_strategy(name, self.values, **options)
        try:
            statistics = run_operations(
                strategy, self.operations, label or name,
                victim_seed=self.victim_seed,
            )
        finally:
            strategy.close()
        per_query = statistics.per_query_cost(self.cost_model)
        return StrategyRunResult(
            strategy=statistics.strategy,
            statistics=statistics,
            initialization_overhead=initialization_overhead(
                statistics, self.scan_cost, self.cost_model
            ),
            convergence_query=convergence_point(
                statistics,
                self.full_index_cost,
                tolerance=self.convergence_tolerance,
                consecutive=self.convergence_consecutive,
                model=self.cost_model,
            ),
            total_cost=sum(per_query),
            total_seconds=statistics.total_seconds,
            final_nbytes=strategy.nbytes,
            robustness=robustness_ratio(per_query) if per_query else 1.0,
            final_structure=strategy.structure_description,
            path=strategy,
        )

    def run(
        self, variants: Union[Iterable[str], Mapping[str, Tuple[str, dict]]]
    ) -> BenchmarkResult:
        """Run every variant over the same stream: registry names, or
        ``label -> (name, options)`` to compare one strategy with itself."""
        if not isinstance(variants, Mapping):
            variants = {name: (name, {}) for name in variants}
        result = BenchmarkResult(
            column_size=len(self.values),
            query_count=len(self.queries),
            scan_cost=self.scan_cost,
            full_index_cost=self.full_index_cost,
        )
        for label, (name, options) in variants.items():
            result.runs[label] = self.run_strategy(name, label=label, **options)
        return result
