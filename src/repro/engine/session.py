"""The session: the one door into the engine for queries, batches and DML.

Adaptive indexing's promise (EDBT 2012 tutorial, Section 3) is that index
refinement rides along with *live* query traffic — there is no offline
window in which the physical design is rebuilt.  That only works if the
concurrent path is the default path: a :class:`Session` is the handle
through which every operation — a single query, a pipelined future, a
whole batch, an insert/delete/update — runs under the same two-level
concurrency protocol (:mod:`repro.engine.concurrency`):

* the **table gate** (a fair readers-writer gate per table): queries hold
  it shared, DML holds it exclusive, so updates issued mid-batch are
  fenced behind in-flight cracks instead of racing the access-path
  rebuild;
* the **per-access-path locks**: selections through paths that physically
  reorganise on read serialize per path, while read-only paths fan out
  freely.

Because every mutation of shared physical state happens inside one of
those critical sections, any concurrent interleaving of sessions is
equivalent — bit-identical results *and* cost counters — to the
sequential execution of the same operations in their per-access-path
order.  The database records that order as an operation journal
(:class:`OperationRecord`, enabled with ``database.record_journal =
True``), which is exactly the sequential oracle the property suite
replays.

Sessions are cheap: they own no data, only a lazily created thread pool
for :meth:`Session.submit` pipelining and a few statistics counters.  They
are obtained from ``Database.session()`` and nowhere else — the database
itself executes nothing.  Use them context-managed::

    with db.session() as session:
        future = session.query("T").where("a", lo, hi).agg("sum", "b").submit()
        session.insert_row("T", {"a": 7, "b": 1.5})   # fenced, not racing
        result = future.result()
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Union

from repro.analysis_tools.guards import guarded_by
from repro.cost.counters import CostCounters
from repro.durability.record import WalRecord
from repro.engine.concurrency import (
    AccessPathClaim,
    BatchExecutionReport,
    classify_plan,
    schedule_batch,
)
from repro.engine.executor import QueryResult
from repro.engine.planner import Plan
from repro.engine.query import Query, QueryBuilder


@dataclass(frozen=True)
class OperationRecord:
    """One linearized engine operation (query or DML).

    The sequence number is stamped while the operation still holds its
    gate / path locks, so replaying a journal in sequence order applies
    every access path's operations in exactly the order the concurrent
    run did — the sequential oracle for the session property suite.
    """

    sequence: int
    kind: str  # "query" | "insert" | "delete" | "update"
    table: str
    #: the operation input: a Query, an insert values mapping, a deleted
    #: rowid, or an (old rowid, changed values) pair for updates
    payload: object
    #: the operation output: a QueryResult, the assigned rowid, or None
    result: object
    session: str = ""


@dataclass
class SessionStats:
    """Point-in-time counters of one session (see :meth:`Session.stats`)."""

    name: str
    queries_executed: int = 0
    batches_executed: int = 0
    operations_submitted: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    rows_updated: int = 0
    #: introspection record of this session's most recent execute_many
    last_batch_report: Optional[BatchExecutionReport] = None


_SESSION_IDS = itertools.count(1)


def default_worker_count(tasks: Optional[int] = None) -> int:
    """Default worker count for session pools and parallel batches.

    One machine-derived default shared by every fan-out entry point: at
    least 2 workers (pipelining needs overlap even on a single core),
    scaling with the cores actually present.  When ``tasks`` is given the
    count is additionally capped by it — a pool never holds more workers
    than it has tasks to run.
    """
    base = max(2, os.cpu_count() or 2)
    if tasks is None:
        return base
    return max(1, min(int(tasks), base))


def validate_max_workers(max_workers: Optional[int]) -> Optional[int]:
    """Validate an optional explicit worker count (``None`` = use default)."""
    if max_workers is not None and max_workers < 1:
        raise ValueError(
            f"max_workers must be a positive worker count, got {max_workers}"
        )
    return max_workers


@guarded_by(
    _pool="_lock",
    _futures="_lock",
    _closed="_lock",
    _stats="_lock",
)
class Session:
    """A lock-aware handle on a :class:`~repro.engine.database.Database`.

    Thread-safe: one session may be shared across threads (its pipelined
    futures already execute on pool threads), and any number of sessions
    on one database interleave safely — equivalence to a sequential
    per-access-path ordering is the invariant the property suite pins.
    """

    def __init__(
        self,
        database,
        name: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        validate_max_workers(max_workers)
        self._database = database
        self.name = name or f"session-{next(_SESSION_IDS)}"
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._futures: List[Future] = []
        self._closed = False
        self._lock = threading.Lock()
        self._stats = SessionStats(name=self.name)

    # -- lifecycle -----------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self) -> None:
        """Drain pipelined work and release the pool (idempotent)."""
        self.drain()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def drain(self) -> None:
        """Block until every future submitted so far has completed.

        Failures stay on their futures (re-raised by ``future.result()``);
        draining only waits.
        """
        with self._lock:
            pending, self._futures = self._futures, []
        for future in pending:
            try:
                future.result()
            except Exception:
                pass  # the caller holds the future; don't swallow its result

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"session {self.name!r} is closed")

    def _submit_task(self, fn, *args) -> Future:
        """Queue work on the session pool, atomically with close().

        The open-check, pool creation and hand-off happen under the
        session lock, so a concurrent :meth:`close` either sees the task
        (and drains it) or the submitter gets the session's own "closed"
        error — never the pool's shutdown exception.
        """
        with self._lock:
            self._check_open()
            if self._pool is None:
                workers = self._max_workers or default_worker_count()
                self._pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"repro-{self.name}",
                )
            future = self._pool.submit(fn, *args)
            self._stats.operations_submitted += 1
            self._futures = [f for f in self._futures if not f.done()]
            self._futures.append(future)
        return future

    # -- queries -------------------------------------------------------------------

    def query(self, table: str) -> QueryBuilder:
        """Fluent builder bound to this session's front door."""
        return QueryBuilder(table, runner=self.execute, submitter=self.submit)

    def execute(self, query: Query) -> QueryResult:
        """Plan and execute one query under the full locking protocol.

        Holds the table gate shared (fencing out DML), classifies the
        plan's access-path claims, and serializes on the exclusive ones —
        so this is safe to call concurrently with batches, pipelined
        futures and DML from any session or thread.
        """
        self._check_open()
        database = self._database
        with database._table_gates.read([query.table]):
            plan = database.planner.plan(query)
            result = self._execute_claimed(
                query, plan, classify_plan(database, plan)
            )
        with self._lock:
            self._stats.queries_executed += 1
        return result

    def _execute_claimed(
        self, query: Query, plan: Plan, claims: Sequence[AccessPathClaim]
    ) -> QueryResult:
        """The one query path: hold the plan's exclusive path locks, execute,
        and stamp the linearization sequence before they release."""
        database = self._database
        with database._path_locks.locked(claims):
            result = database._execute_single(query, plan)
            result.sequence = database._journal_record(
                "query", query.table, query, result, session=self.name
            )
        return result

    def submit(self, query: Query) -> Future:
        """Pipeline one query; returns a future resolving to its result.

        Submitted queries run on the session's pool through the same
        locked :meth:`execute` path; their completion order is arbitrary,
        but every physical reorganisation still serializes per access
        path.
        """
        return self._submit_task(self.execute, query)

    def execute_many(
        self,
        queries: Sequence[Query],
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """Execute a batch under per-access-path concurrency control.

        The batch holds the gates of every referenced table shared for
        its whole duration: DML issued meanwhile queues on the gates
        (fenced) and the batch's up-front classification stays valid
        until the last query finishes.  Queries through read-only paths
        fan out over a thread pool (``parallel=True``); queries through
        mutating paths serialize per access path in submission order, so
        results and cost counters are bit-identical to sequential
        execution.  See :class:`BatchExecutionReport` for the observed
        decomposition, reported as ``stats().last_batch_report``.
        """
        self._check_open()
        database = self._database
        validate_max_workers(max_workers)
        queries = list(queries)
        if not queries:
            return self._finish_batch(BatchExecutionReport(parallel=parallel), [])

        with ExitStack() as stack:
            stack.enter_context(
                database._table_gates.read([q.table for q in queries])
            )
            plans = [database.planner.plan(query) for query in queries]
            schedule = schedule_batch(database, plans)
            results: List[Optional[QueryResult]] = [None] * len(queries)

            def run_task(positions: List[int]) -> None:
                for position in positions:
                    results[position] = self._execute_claimed(
                        queries[position], plans[position],
                        schedule.claims[position],
                    )

            if not parallel or len(schedule.tasks) <= 1:
                for task in schedule.tasks:
                    run_task(task)
            else:
                workers = max_workers or default_worker_count(len(schedule.tasks))
                with ThreadPoolExecutor(
                    max_workers=max(1, workers), thread_name_prefix="repro-batch"
                ) as pool:
                    futures = [pool.submit(run_task, task) for task in schedule.tasks]
                    for future in futures:
                        future.result()

        worker_names = tuple(sorted({r.worker for r in results if r is not None}))
        report = BatchExecutionReport(
            query_count=len(queries),
            task_count=len(schedule.tasks),
            exclusive_groups=schedule.exclusive_groups,
            read_only_queries=schedule.read_only_queries,
            parallel=parallel,
            workers_used=len(worker_names),
            worker_names=worker_names,
        )
        return self._finish_batch(report, results)

    def _finish_batch(
        self, report: BatchExecutionReport, results: List[QueryResult]
    ) -> List[QueryResult]:
        with self._lock:
            self._stats.batches_executed += 1
            self._stats.queries_executed += len(results)
            self._stats.last_batch_report = report
        return results

    # -- DML -----------------------------------------------------------------------

    def _commit_dml(
        self,
        kind: str,
        table: str,
        apply: Callable[[], Optional[int]],
        payload: object,
        counter: str,
        **wal_fields,
    ) -> Optional[int]:
        """The one DML commit path: fence, apply, journal, count.

        ``apply`` runs under the table's write gate and returns the row
        identifier the operation assigned (None for a delete); ``payload``
        is the operation input the in-memory journal keeps, ``wal_fields``
        what the durable record carries beside ``rowid`` (the assigned
        identifier unless the caller names one), ``counter`` the session
        statistic to bump.
        """
        self._check_open()
        database = self._database
        durability = database._durability
        with database._table_gates.write(table):
            result = apply()
            if durability is None:
                database._journal_record(
                    kind, table, payload, result, session=self.name
                )
            else:
                # write-ahead contract: the journal append (and its group
                # commit) completes before the gate releases, i.e. before
                # any other operation can observe the change — the file
                # I/O inside this critical section is RL005-baselined.
                # The order mutex spans sequence assignment *and* the
                # append: sessions writing different tables hold different
                # gates, so without it their records could reach the WAL
                # out of linearization order (which WalScan rejects as
                # corruption).
                with database._wal_order_lock:
                    sequence = database._journal_record(
                        kind, table, payload, result, session=self.name
                    )
                    wal_fields.setdefault("rowid", result)
                    durability.append_record(
                        WalRecord(sequence=sequence, kind=kind, table=table,
                                  **wal_fields)
                    )
        with self._lock:
            setattr(self._stats, counter, getattr(self._stats, counter) + 1)
        if durability is not None and durability.snapshot_due():
            database.snapshot()
        return result

    def insert_row(
        self,
        table: str,
        values: Mapping[str, Union[int, float]],
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Insert one row, fenced against in-flight queries; returns its rowid.

        Holds the table gate exclusive: the append and every access-path
        absorb/rebuild run with no query in flight on the table, and each
        per-path mutation additionally holds that path's lock.
        """
        row = dict(values)
        return self._commit_dml(
            "insert", table,
            lambda: self._database._insert_row_locked(table, values, counters),
            row, "rows_inserted", values=row,
        )

    def delete_row(
        self,
        table: str,
        rowid: int,
        counters: Optional[CostCounters] = None,
    ) -> None:
        """Delete the row identified by ``rowid`` (idempotent), fenced."""
        self._commit_dml(
            "delete", table,
            lambda: self._database._delete_row_locked(table, rowid, counters),
            int(rowid), "rows_deleted", rowid=int(rowid),
        )

    def update_row(
        self,
        table: str,
        rowid: int,
        values: Mapping[str, Union[int, float]],
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Update = delete + insert under one fence; returns the new rowid."""
        changed = dict(values)
        return self._commit_dml(
            "update", table,
            lambda: self._database._update_row_locked(
                table, rowid, values, counters
            ),
            (int(rowid), changed), "rows_updated",
            old_rowid=int(rowid), values=changed,
        )

    def submit_insert(
        self,
        table: str,
        values: Mapping[str, Union[int, float]],
        counters: Optional[CostCounters] = None,
    ) -> Future:
        """Queue an insert on the session pipeline (fenced when it runs)."""
        return self._submit_task(self.insert_row, table, values, counters)

    def submit_delete(
        self,
        table: str,
        rowid: int,
        counters: Optional[CostCounters] = None,
    ) -> Future:
        """Queue a delete on the session pipeline (fenced when it runs)."""
        return self._submit_task(self.delete_row, table, rowid, counters)

    def submit_update(
        self,
        table: str,
        rowid: int,
        values: Mapping[str, Union[int, float]],
        counters: Optional[CostCounters] = None,
    ) -> Future:
        """Queue an update on the session pipeline (fenced when it runs)."""
        return self._submit_task(self.update_row, table, rowid, values, counters)

    # -- introspection -------------------------------------------------------------

    def stats(self) -> SessionStats:
        """A snapshot of this session's operation counters."""
        with self._lock:
            return SessionStats(
                name=self._stats.name,
                queries_executed=self._stats.queries_executed,
                batches_executed=self._stats.batches_executed,
                operations_submitted=self._stats.operations_submitted,
                rows_inserted=self._stats.rows_inserted,
                rows_deleted=self._stats.rows_deleted,
                rows_updated=self._stats.rows_updated,
                last_batch_report=self._stats.last_batch_report,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Session({self.name!r}, {state}, db={self._database.name!r})"
