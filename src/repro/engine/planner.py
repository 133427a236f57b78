"""Query planner: choose access paths based on the current physical design.

The planner's job mirrors what the tutorial calls the "optimizer rules"
needed by an auto-tuning kernel: for each selection it picks the best
available access path for that column *right now* —

* the access path installed for the column — the structure itself,
  satisfying :class:`~repro.core.access_path.SearchStrategy` and labelled
  in the plan with the column's indexing mode — ranked by its
  ``selection_priority`` (a path that covers the projection first, then
  an index — offline, sort-first or adaptive — before a tuner that may
  not have built yet), or
* a plain scan —

and orders the remaining work (predicate refinement, tuple reconstruction,
aggregation) behind it; a leading path that declares ``covers_projection``
takes the refinement and the reconstruction into its own step.  The
produced plan is a linear list of steps; the executor interprets them.
The planner is also where bounds become keys of their column's type
(:func:`~repro.columnstore.types.exact_bounds`, once per selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.columnstore.types import exact_bounds
from repro.engine.query import Query, RangeSelection


class PlanStep(NamedTuple):
    """One step of a physical plan (a named tuple: immutable, and cheap to
    build for every query)."""

    operator: str  # index_select | scan_select | refine | reconstruct |
    #               aggregate
    table: str
    column: str = ""
    low: Optional[float] = None
    high: Optional[float] = None
    #: the attributes a ``reconstruct`` fetches — or, on a leading
    #: ``index_select``, the other attributes the query touches, all of
    #: which the step's path (it covers the projection) answers itself
    columns: tuple = ()
    function: str = ""
    access_path: str = ""  # strategy / mode handling an index_select


@dataclass
class Plan:
    """An ordered list of plan steps plus bookkeeping for explain output."""

    #: the planned query, each selection's bounds typed for its column
    query: Query
    steps: List[PlanStep] = field(default_factory=list)

    def access_path_steps(self) -> List[PlanStep]:
        """Steps that dispatch through a (table, column) access path.

        These are the steps whose execution can touch a shared physical
        structure — the session's lock protocol
        (:mod:`repro.engine.concurrency`) classifies a query's concurrency
        claims from exactly this list.  Refinement, reconstruction and
        aggregation steps read immutable base columns only and are absent.
        """
        return [
            step for step in self.steps
            if step.operator in ("scan_select", "index_select")
        ]

    def explain(self) -> str:
        """Human-readable plan description (EXPLAIN-style)."""
        lines = [f"plan for: {self.query.description or self.query.table}"]
        for index, step in enumerate(self.steps):
            detail = ""
            if step.operator in ("index_select", "scan_select", "refine"):
                detail = f" {step.column} in [{step.low}, {step.high})"
                if step.access_path:
                    detail += f" via {step.access_path}"
                if step.columns:
                    detail += f" covering {list(step.columns)}"
            elif step.operator == "reconstruct":
                detail = f" columns={list(step.columns)}"
            elif step.operator == "aggregate":
                detail = f" {step.function}({step.column})"
            lines.append(f"  {index}: {step.operator}{detail}")
        return "\n".join(lines)


class Planner:
    """Plans queries against the physical design registered in a Database."""

    def __init__(self, database) -> None:
        self.database = database

    def _typed(self, query: Query) -> Query:
        """``query`` with each selection's bounds as keys of its column —
        ``query`` itself when they already are."""
        table = self.database.table(query.table)
        selections, retyped = [], False
        for selection in query.selections:
            low, high = exact_bounds(table.column(selection.column).dtype.numpy_dtype,
                                     selection.low, selection.high)
            if low is not selection.low or high is not selection.high:
                selection, retyped = RangeSelection(selection.column, low, high), True
            selections.append(selection)
        if not retyped:
            return query
        return Query(query.table, selections, query.projections,
                     query.aggregates, query.description)

    def plan(self, query: Query) -> Plan:
        """Produce a plan for ``query`` against the current physical design."""
        query = self._typed(query)
        table = query.table
        plan = Plan(query=query)
        # selection order: lower priority first — a path that covers the
        # projection, an index, a tuner, then a scan (2) — stable, so one
        # selection needs no sort
        access_path = self.database.access_path
        ordered = [(selection, access_path(table, selection.column))
                   for selection in query.selections]
        if len(ordered) > 1:
            ordered.sort(key=lambda pair: 2 if pair[1] is None
                         else pair[1].selection_priority)
        covered = ()
        for index, (selection, path) in enumerate(ordered):
            if index == 0:
                if path is not None and path.covers_projection:
                    # the path refines and projects from its own aligned
                    # copies: every other attribute the query touches
                    # rides on this step, none gets a step of its own
                    covered = tuple(dict.fromkeys(
                        [s.column for s, _ in ordered[1:]]
                        + list(query.projections)
                        + [a.column for a in query.aggregates]
                    ))
                plan.steps.append(
                    PlanStep(
                        operator="scan_select" if path is None else "index_select",
                        table=table,
                        column=selection.column,
                        low=selection.low,
                        high=selection.high,
                        columns=covered,
                        access_path=self.database.indexing_mode(
                            table, selection.column) or "scan",
                    )
                )
            elif not covered:
                plan.steps.append(
                    PlanStep(
                        operator="refine",
                        table=table,
                        column=selection.column,
                        low=selection.low,
                        high=selection.high,
                    )
                )

        if query.projections and not covered:
            plan.steps.append(
                PlanStep(
                    operator="reconstruct",
                    table=table,
                    columns=tuple(query.projections),
                )
            )
        for aggregate in query.aggregates:
            plan.steps.append(
                PlanStep(
                    operator="aggregate",
                    table=table,
                    column=aggregate.column,
                    function=aggregate.function,
                )
            )
        return plan
