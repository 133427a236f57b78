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
(:func:`~repro.columnstore.types.exact_bounds`, once per selection): the
steps carry them, and the plan keeps the caller's query as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.columnstore.types import exact_bounds
from repro.engine.query import Query

#: the operators of a plan's leading selection step
_SELECTS = ("scan_select", "index_select")


class PlanStep(NamedTuple):
    """One step of a physical plan (a named tuple: immutable, and cheap to
    build for every query — cheapest with positional fields, as the
    planner builds the steps every query has)."""

    operator: str  # index_select | scan_select | refine | reconstruct |
    #               aggregate
    table: str
    column: str = ""
    low: Optional[float] = None
    high: Optional[float] = None
    access_path: str = ""  # strategy / mode handling an index_select
    #: the attributes a ``reconstruct`` fetches — or, on a leading
    #: ``index_select``, the other attributes the query touches, all of
    #: which the step's path (it covers the projection) answers itself
    columns: tuple = ()
    #: on a leading ``index_select`` that covers the projection: the other
    #: selections, ``(column, low, high)`` each, which its path refines on
    refinements: tuple = ()
    function: str = ""


@dataclass
class Plan:
    """An ordered list of plan steps plus bookkeeping for explain output."""

    #: the planned query as the caller gave it (the steps hold its bounds
    #: typed for their columns)
    query: Query
    steps: List[PlanStep] = field(default_factory=list)

    def access_path_steps(self) -> List[PlanStep]:
        """Steps that dispatch through a (table, column) access path: the
        leading selection, the only step that selects, or none.

        These are the steps whose execution can touch a shared physical
        structure — the session's lock protocol
        (:mod:`repro.engine.concurrency`) classifies a query's concurrency
        claims from exactly this list.  Refinement, reconstruction and
        aggregation steps read immutable base columns only and are absent.
        """
        steps = self.steps[:1]
        return steps if steps and steps[0].operator in _SELECTS else []


class Planner:
    """Plans queries against the physical design registered in a Database."""

    def __init__(self, database) -> None:
        self.database = database

    def plan(self, query: Query) -> Plan:
        """Produce a plan for ``query`` against the current physical design."""
        table = query.table
        column_of = self.database.table(table).column
        access_path = self.database.access_path
        # per selection: column, bounds as keys of its type, access path
        ordered = []
        for selection in query.selections:
            name = selection.column
            low, high = exact_bounds(column_of(name).dtype.numpy_dtype,
                                     selection.low, selection.high)
            ordered.append((name, low, high, access_path(table, name)))
        # selection order: lower priority first — a path that covers the
        # projection, an index, a tuner, then a scan (2) — stable, so one
        # selection needs no sort
        if len(ordered) > 1:
            ordered.sort(key=lambda typed: 2 if typed[3] is None
                         else typed[3].selection_priority)
        steps = []
        covered = ()
        if ordered:
            name, low, high, path = ordered[0]
            refinements = ()
            if path is not None and path.covers_projection:
                # the path refines and projects from its own aligned
                # copies: every other attribute the query touches rides
                # on this step, none gets a step of its own
                refinements = tuple(typed[:3] for typed in ordered[1:])
                covered = tuple(dict.fromkeys(
                    [typed[0] for typed in refinements] + list(query.projections)
                    + [a.column for a in query.aggregates]
                ))
            steps.append(PlanStep(
                "scan_select" if path is None else "index_select", table, name,
                low, high, self.database.indexing_mode(table, name) or "scan",
                covered, refinements,
            ))
            if not covered:
                for name, low, high, _ in ordered[1:]:
                    steps.append(PlanStep("refine", table, name, low, high))
        if query.projections and not covered:
            steps.append(PlanStep("reconstruct", table,
                                  columns=tuple(query.projections)))
        for aggregate in query.aggregates:
            steps.append(PlanStep("aggregate", table, aggregate.column,
                                  function=aggregate.function))
        return Plan(query, steps)
