"""User-facing facade: one adaptive index, any strategy.

:class:`AdaptiveIndex` is the single entry point most applications need: it
wraps one column with the chosen adaptive (or baseline) strategy, exposes
the ``search`` operator, and records per-query statistics so the
adaptive-indexing benchmark metrics (initialization cost, convergence) can
be computed afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.columnstore.column import Column
from repro.core.strategies import SearchStrategy, create_strategy
from repro.cost.counters import CostCounters
from repro.cost.model import CostModel, DEFAULT_MAIN_MEMORY_MODEL
from repro.cost.stats import QueryStatistics, WorkloadStatistics
from repro.cost.timer import Timer


class AdaptiveIndex:
    """An adaptively indexed column.

    Parameters
    ----------
    column:
        The column (or raw NumPy array) to index.
    strategy:
        Registry name of the indexing strategy (see
        :func:`repro.core.strategies.available_strategies`); defaults to
        classic database cracking.
    collect_statistics:
        When True (default) every query's wall-clock time and logical cost
        counters are recorded in :attr:`statistics`.
    options:
        Extra keyword arguments forwarded to the strategy constructor
        (e.g. ``run_size`` for adaptive merging, ``variant`` for stochastic
        cracking).
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        strategy: str = "cracking",
        collect_statistics: bool = True,
        **options,
    ) -> None:
        self.column = column
        self.strategy_name = strategy
        self.strategy: SearchStrategy = create_strategy(strategy, column, **options)
        self.collect_statistics = collect_statistics
        self.statistics = WorkloadStatistics(strategy=strategy)

    def __len__(self) -> int:
        return len(self.strategy)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveIndex(strategy={self.strategy_name!r}, rows={len(self)}, "
            f"queries={self.queries_processed})"
        )

    @property
    def queries_processed(self) -> int:
        """Number of queries answered so far."""
        return self.strategy.queries_processed

    @property
    def nbytes(self) -> int:
        """Auxiliary storage currently held by the strategy."""
        return self.strategy.nbytes

    # -- querying ------------------------------------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Positions of rows with ``low <= value < high`` (adapting as a side effect)."""
        # charge a fresh object so the recorded statistics are this query's
        # work even when the caller accumulates a stream into one ``counters``
        own_counters = CostCounters()
        timer = Timer()
        with timer:
            positions = self.strategy.search(low, high, own_counters)
        if counters is not None:
            counters += own_counters
        if self.collect_statistics:
            self.statistics.append(
                QueryStatistics(
                    query_index=len(self.statistics),
                    elapsed_seconds=timer.elapsed,
                    counters=own_counters,
                    result_count=len(positions),
                    strategy=self.strategy_name,
                    description=f"range [{low}, {high})",
                )
            )
        return positions

    def count(self, low: Optional[float], high: Optional[float]) -> int:
        """Number of qualifying rows (adapting as a side effect)."""
        return len(self.search(low, high))

    # -- analysis ------------------------------------------------------------------

    def per_query_cost(self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL) -> List[float]:
        """Logical cost of every query answered so far."""
        return self.statistics.per_query_cost(model)

    def cumulative_cost(self, model: CostModel = DEFAULT_MAIN_MEMORY_MODEL) -> List[float]:
        """Cumulative logical cost of the query sequence so far."""
        return self.statistics.cumulative_cost(model)

    def structure_description(self) -> str:
        """One-line summary of the strategy's physical state."""
        return self.strategy.structure_description
