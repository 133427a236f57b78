"""Per-query and per-workload statistics containers.

These containers are produced by the engine (:mod:`repro.engine`) and by the
adaptive-indexing benchmark harness (:mod:`repro.workloads.benchmark`).  They
record, for every query of a workload, the wall-clock time, the logical cost
counters, and the result cardinality — everything the figure table in
``benchmarks/figures.py`` needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cost.counters import CostCounters
from repro.cost.model import CostModel, DEFAULT_MAIN_MEMORY_MODEL


@dataclass
class QueryStatistics:
    """Statistics of a single executed query."""

    query_index: int
    elapsed_seconds: float
    counters: CostCounters
    result_count: int = 0
    strategy: str = ""
    description: str = ""

    def logical_cost(self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL) -> float:
        """Weighted logical cost under the given cost model."""
        return model.cost(self.counters)


@dataclass
class WorkloadStatistics:
    """Statistics of a full query sequence executed against one strategy."""

    strategy: str = ""
    queries: List[QueryStatistics] = field(default_factory=list)
    #: inserts, deletes and updates applied between the queries
    update_count: int = 0
    #: wall-clock over every operation, writes included
    wall_seconds: float = 0.0
    #: crc32 chained over each query's sorted result positions: two runs that
    #: answered every query with the same row set agree
    answers_crc: int = 0

    def append(self, stats: QueryStatistics) -> None:
        self.queries.append(stats)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    # -- aggregates ----------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(q.elapsed_seconds for q in self.queries)

    def per_query_cost(
        self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL
    ) -> List[float]:
        """Per-query logical cost under ``model``."""
        return [q.logical_cost(model) for q in self.queries]

    def cumulative_cost(
        self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL
    ) -> List[float]:
        """Running sum of per-query logical cost under ``model``."""
        total = 0.0
        cumulative = []
        for query in self.queries:
            total += query.logical_cost(model)
            cumulative.append(total)
        return cumulative

    def total_counters(self) -> CostCounters:
        """Sum of the logical counters over the whole workload."""
        total = CostCounters()
        for query in self.queries:
            total += query.counters
        return total

    def first_query_cost(
        self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL
    ) -> Optional[float]:
        """Logical cost of the first query (None for an empty workload).

        This is metric (1) of the adaptive-indexing benchmark
        (Graefe et al., TPCTC 2010): the initialization cost incurred by the
        first query.
        """
        if not self.queries:
            return None
        return self.queries[0].logical_cost(model)

    def convergence_query(
        self,
        reference_cost: float,
        tolerance: float = 1.1,
        model: CostModel = DEFAULT_MAIN_MEMORY_MODEL,
        consecutive: int = 5,
    ) -> Optional[int]:
        """Index of the query after which cost stays within tolerance.

        This is metric (2) of the adaptive-indexing benchmark: the number of
        queries processed before a random query is answered at (near) full
        index cost.  A strategy *converged* at query ``i`` when queries
        ``i .. i+consecutive-1`` all cost at most ``tolerance *
        reference_cost``.  Returns ``None`` when convergence is never
        reached.
        """
        if reference_cost <= 0:
            raise ValueError("reference_cost must be positive")
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        costs = self.per_query_cost(model)
        threshold = tolerance * reference_cost
        run = 0
        for index, cost in enumerate(costs):
            if cost <= threshold:
                run += 1
                if run >= consecutive:
                    return index - consecutive + 1
            else:
                run = 0
        return None
