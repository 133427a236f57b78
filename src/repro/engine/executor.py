"""Plan executor.

Interprets the linear plans produced by the
:class:`~repro.engine.planner.Planner` against the physical structures owned
by the :class:`~repro.engine.database.Database`, recording all work on a
single :class:`~repro.cost.counters.CostCounters` instance per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.columnstore.operators import aggregate as aggregate_values
from repro.columnstore.reconstruct import fetch_column, late_reconstruct
from repro.columnstore.select import RangePredicate, refine_select
from repro.cost.counters import CostCounters
from repro.engine.planner import Plan


@dataclass
class QueryResult:
    """Result of executing one query."""

    positions: np.ndarray
    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    aggregates: Dict[str, float] = field(default_factory=dict)
    counters: CostCounters = field(default_factory=CostCounters)
    elapsed_seconds: float = 0.0
    #: engine-wide linearization stamp assigned by the session front door
    #: (-1 when the query bypassed it); orders this query against every
    #: other session operation per access path
    sequence: int = -1

    @property
    def row_count(self) -> int:
        return len(self.positions)


class Executor:
    """Executes plans step by step against a database's physical design."""

    def __init__(self, database) -> None:
        self.database = database

    def execute(self, plan: Plan, counters: Optional[CostCounters] = None,
                selection: Optional[np.ndarray] = None) -> QueryResult:
        """Run every plan step, threading the candidate position list through.

        ``selection`` is what the access path already answered for the
        plan's leading ``index_select`` (a batch's one-pass crack, whose
        cost is on ``counters``); it goes through the same tombstone filter
        as a search made here.
        """
        counters = counters if counters is not None else CostCounters()
        query = plan.query
        table = self.database.table(query.table)
        columns: Dict[str, np.ndarray] = {}
        aggregates: Dict[str, float] = {}
        # the leading selection, the one step that selects, runs first
        leading = plan.access_path_steps()
        step = leading[0] if leading else None
        if step is None:
            # no selection: all rows qualify
            positions = _all_positions(table, counters)
        elif not step.columns:
            # one dispatch: a column without an access path is scanned
            positions = self.database.index_select(
                query.table, step.column, step.low, step.high, counters, selection,
            )
        else:
            # the path covers the projection: it refines on the other
            # predicates itself and hands back, aligned with the positions,
            # every attribute the query projects or aggregates
            path = self.database.access_path(query.table, step.column)
            positions, columns = path.select_project(
                step.low, step.high,
                {name: (low, high) for name, low, high in step.refinements},
                list(dict.fromkeys([*query.projections,
                                    *(a.column for a in query.aggregates)])),
                counters,
            )
            # the aligned columns lose their tombstoned rows with the
            # positions (a no-op for a path that absorbed the deletes)
            positions = table.visible_positions(positions, columns)
        for step in plan.steps[len(leading):]:
            operator = step.operator
            if operator == "aggregate":
                values = columns.get(step.column)
                if values is None:
                    values = fetch_column(table, positions, step.column, counters)
                key = f"{step.function}({step.column})"
                if step.function != "count" and len(values) == 0:
                    aggregates[key] = float("nan")
                else:
                    aggregates[key] = aggregate_values(values, step.function, counters)
            elif operator == "refine":
                positions = refine_select(
                    table.column(step.column),
                    positions,
                    RangePredicate(step.low, step.high),
                    counters,
                )
            elif operator == "reconstruct":
                needed = [name for name in step.columns if name not in columns]
                columns.update(late_reconstruct(table, positions, needed, counters))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown plan operator {operator!r}")

        if columns:
            # keep only the requested projections in the result columns
            requested = query.projections
            columns = {name: values for name, values in columns.items()
                       if name in requested}
        return QueryResult(positions, columns, aggregates, counters)


def _all_positions(table, counters: CostCounters) -> np.ndarray:
    """Every visible row of ``table``, charged as a scan: what a plan with
    no selection step hands its projections and aggregates."""
    counters.record_scan(table.row_count)
    return table.visible_positions(np.arange(table.row_count, dtype=np.int64))
