"""Declarative query descriptions.

A :class:`Query` is a conjunctive range-select / project / aggregate over
one table — the query shape used throughout the adaptive-indexing
literature (and by the benchmark of Graefe et al.).  Queries carry no
execution logic; the planner decides how to run them given the table's
current indexing mode.

:class:`QueryBuilder` is the fluent front half of the session API::

    session.query("T").where("a", lo, hi).select("b").agg("sum", "b").run()

It desugars to a plain :class:`Query`; ``run()`` hands the built query to
the session the builder was obtained from.  A detached
builder (constructed directly) can still ``build()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


#: aggregate functions the executor implements (see
#: :func:`repro.columnstore.operators.aggregate`)
AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "mean")


@dataclass(frozen=True)
class RangeSelection:
    """A half-open range predicate on one column: ``low <= column < high``."""

    column: str
    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.low is not None and self.high is not None and self.high < self.low:
            raise ValueError(
                f"empty selection on {self.column!r}: high ({self.high}) < low ({self.low})"
            )

@dataclass(frozen=True)
class Aggregate:
    """An aggregate over one projected column."""

    column: str
    function: str = "sum"

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise ValueError(
                f"unknown aggregate function {self.function!r} on column "
                f"{self.column!r}; supported: {', '.join(AGGREGATE_FUNCTIONS)}"
            )


@dataclass
class Query:
    """A conjunctive select-project-aggregate query over one table."""

    table: str
    selections: List[RangeSelection] = field(default_factory=list)
    projections: List[str] = field(default_factory=list)
    aggregates: List[Aggregate] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("a query must name a table")
        seen = set()
        for selection in self.selections:
            if selection.column in seen:
                raise ValueError(
                    f"duplicate selection on column {selection.column!r}; "
                    "combine the bounds into one RangeSelection"
                )
            seen.add(selection.column)

    @classmethod
    def range_query(
        cls,
        table: str,
        column: str,
        low: Optional[float],
        high: Optional[float],
        projections: Optional[Sequence[str]] = None,
    ) -> "Query":
        """Convenience constructor for the canonical single-column range query."""
        return cls(
            table=table,
            selections=[RangeSelection(column, low, high)],
            projections=list(projections or []),
            description=f"{table}.{column} in [{low}, {high})",
        )


class QueryBuilder:
    """Fluent construction of a :class:`Query`, bound to an execution hook.

    Obtained from ``Session.query(table)``;
    every clause method returns the builder, ``build()`` produces the
    immutable :class:`Query`, and ``run()`` executes it
    through the owning session's lock-aware front door.  Validation is
    eager: a duplicate ``where`` on one column or an unknown aggregate
    function raises at the clause, not deep inside the executor.
    """

    def __init__(
        self,
        table: str,
        runner: Optional[Callable[["Query"], object]] = None,
    ) -> None:
        if not table:
            raise ValueError("a query must name a table")
        self._table = table
        self._selections: List[RangeSelection] = []
        self._projections: List[str] = []
        self._aggregates: List[Aggregate] = []
        self._runner = runner

    def where(
        self,
        column: str,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> "QueryBuilder":
        """Add the conjunct ``low <= column < high`` (None = unbounded)."""
        if any(s.column == column for s in self._selections):
            raise ValueError(
                f"duplicate selection on column {column!r}; "
                "combine the bounds into one where()"
            )
        self._selections.append(RangeSelection(column, low, high))
        return self

    def select(self, *columns: str) -> "QueryBuilder":
        """Project ``columns`` into the result (duplicates collapse)."""
        for column in columns:
            if column not in self._projections:
                self._projections.append(column)
        return self

    def agg(self, function: str, column: str) -> "QueryBuilder":
        """Add ``function(column)`` to the result aggregates."""
        self._aggregates.append(Aggregate(column, function))
        return self

    def build(self) -> Query:
        """Desugar to the immutable :class:`Query` dataclass."""
        return Query(
            table=self._table,
            selections=list(self._selections),
            projections=list(self._projections),
            aggregates=list(self._aggregates),
            description=self._default_description(),
        )

    def _default_description(self) -> str:
        clauses = [
            f"{s.column} in [{s.low}, {s.high})" for s in self._selections
        ]
        return f"{self._table}: {' and '.join(clauses)}" if clauses else self._table

    def run(self):
        """Build and execute through the bound session (lock-aware)."""
        if self._runner is None:
            raise RuntimeError(
                "this builder is not bound to a session; "
                "use build() and execute the query yourself"
            )
        return self._runner(self.build())
