"""Query engine.

The engine ties the substrate together the way an "auto-tuning kernel"
(tutorial, Section 2) would: a :class:`~repro.engine.database.Database`
owns tables, each table's columns can be put under any indexing mode
(scan-only, offline full index, online tuning, soft indexes, or any adaptive
strategy), and queries are planned and executed through the same operators
regardless of the mode — physical design differences stay invisible to the
query author, exactly as adaptive indexing promises.

The one door is the :class:`~repro.engine.session.Session`
(``db.session()``): one lock-aware, thread-free API for single queries,
batches and DML, all interleaving safely across sessions and caller
threads with results bit-identical to a sequential per-access-path
ordering.
"""

from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, QueryBuilder, RangeSelection
from repro.engine.planner import Planner, PlanStep
from repro.engine.executor import Executor, QueryResult
from repro.engine.session import OperationRecord, Session, SessionStats

__all__ = [
    "Aggregate",
    "Database",
    "Query",
    "QueryBuilder",
    "RangeSelection",
    "Planner",
    "PlanStep",
    "Executor",
    "QueryResult",
    "OperationRecord",
    "Session",
    "SessionStats",
]
