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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.cost.counters import CostCounters
from repro.cost.timer import Timer
from repro.cost.witness import cost_witness
from repro.durability.record import WalRecord
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


@dataclass
class _Commit:
    """What a DML body hands :meth:`Session._commit_dml` to journal: the
    row identifier it assigned (None for a delete)."""

    rowid: Optional[int] = None


_SESSION_IDS = itertools.count(1)


def default_worker_count() -> int:
    """Default worker count of a session's :meth:`Session.submit` pool: at
    least 2 workers (pipelining needs overlap even on a single core),
    scaling with the cores actually present."""
    return max(2, os.cpu_count() or 2)


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
        """Plan and execute one query under the full locking protocol: a
        batch of one (:meth:`execute_many`), counted as a query and not as
        a batch.

        Safe to call concurrently with batches, pipelined futures and DML
        from any session or thread.
        """
        return self._execute_batch([query])[0]

    def _execute_locked(
        self, query: Query, plan: Plan, counters: CostCounters,
        selection: Optional[np.ndarray] = None,
    ) -> QueryResult:
        """Execute and journal one query whose path locks the caller holds;
        ``selection`` is its leading ``index_select``'s answer when a batch
        pass already computed it (charged to ``counters``).

        Every query passes here holding its locks, which makes this the
        cost-conformance hook site: the witness (when armed, see
        :mod:`repro.cost.witness`) fingerprints every access path the plan
        dispatches through before and after the executor runs and checks
        the structural delta against the query's counters."""
        database = self._database
        timer = Timer()
        witness = cost_witness()
        snapshots = None
        if witness is not None:
            snapshots = witness.before(
                (step.table, step.column,
                 database.access_path(step.table, step.column))
                for step in plan.access_path_steps()
            )
        with timer:
            result = database.executor.execute(plan, counters, selection)
        if witness is not None:
            witness.after(
                query.description or query.table, snapshots, result.counters
            )
        result.elapsed_seconds = timer.elapsed
        result.worker = threading.current_thread().name
        result.sequence = database._journal_record(
            "query", query.table, query, result, session=self.name
        )
        return result

    def _batch_selections(
        self, plans: Sequence[Plan], counters: Sequence[CostCounters]
    ) -> List[Optional[np.ndarray]]:
        """Per batch position, the leading selection's answer from one
        ``search_many`` call per access path that two or more queries of the
        batch select through and that only plain ``index_select`` steps use
        (a covering selection or a scan keeps its path on the query path:
        None).  The cost witness brackets each call as one operation."""
        selections: List[Optional[np.ndarray]] = [None] * len(plans)
        if len(plans) < 2:
            return selections  # a lone query selects on the query path
        database = self._database
        uses: dict = {}
        for position, plan in enumerate(plans):
            for step in plan.access_path_steps():
                key = (step.table, step.column)
                plain = step.operator == "index_select" and not step.columns
                uses.setdefault(key, []).append((position, step) if plain else None)
        witness = cost_witness()
        for (table, column), steps in uses.items():
            if len(steps) < 2 or None in steps:
                continue
            path = database.access_path(table, column)
            batch = [counters[position] for position, _ in steps]
            snapshots = None
            if witness is not None:
                snapshots = witness.before([(table, column, path)])
            answers = path.search_many(
                [(step.low, step.high) for _, step in steps], batch)
            if witness is not None:
                witness.after(f"batch of {len(steps)} on {table}.{column}",
                              snapshots, sum(batch, CostCounters()))
            for (position, _), answer in zip(steps, answers):
                selections[position] = answer
        return selections

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
        """Execute a batch as one unit, on the calling thread.

        The batch holds the gates of every referenced table shared for
        its whole duration: DML issued meanwhile queues on the gates
        (fenced) and the batch's up-front classification stays valid
        until the last query finishes.  It then takes the path lock of
        every access path its queries select through, once each (sorted,
        so concurrent batches cannot deadlock), asks under it whether the
        path reorganises on read and keeps the locks of those that do
        (:meth:`~repro.engine.concurrency.AccessPathLockManager.claimed`).
        Every access path that two or more of its queries select through
        — by plain ``index_select`` steps only — answers their ranges in
        one ``search_many`` call (a cracked column cracks each touched
        piece once for all of them); the queries then run and are
        journaled in submission order, each taking its precomputed
        answer, and the locks release after the last journal record.  A
        batch over two mutating paths therefore holds both until it ends,
        and no query of another session touches either path in between, so
        the journal orders every path's queries as they cracked it.
        Results, cost counters and the journal are bit-identical to
        executing the queries one by one.

        ``parallel`` and ``max_workers`` are accepted and ignored (they are
        not validated either): a batch starts no thread.
        """
        results = self._execute_batch(list(queries))
        with self._lock:
            self._stats.batches_executed += 1
        return results

    def _execute_batch(self, queries: List[Query]) -> List[QueryResult]:
        """The one query path (the body :meth:`execute_many` describes),
        counting the queries it ran; :meth:`execute_many` also counts a
        batch."""
        self._check_open()
        database = self._database
        results: List[QueryResult] = []
        if queries:
            with database._table_gates.read([q.table for q in queries]):
                plans = [database.planner.plan(query) for query in queries]
                with database._path_locks.claimed(database, plans):
                    counters = [CostCounters() for _ in plans]
                    results = list(map(self._execute_locked, queries, plans, counters,
                                       self._batch_selections(plans, counters)))
        with self._lock:
            self._stats.queries_executed += len(results)
        return results

    # -- DML -----------------------------------------------------------------------

    @contextmanager
    def _commit_dml(self, kind: str, table: str, payload: object, **wal_fields):
        """The one DML commit path: fence, apply, journal.

        The ``with`` block applies the operation under the table's write
        gate and sets ``rowid`` on the yielded :class:`_Commit` to the row
        identifier it assigned (a delete assigns none); ``payload`` is the
        operation input the in-memory journal keeps, ``wal_fields`` what
        the durable record carries beside ``rowid`` (the assigned
        identifier unless the caller names one).
        """
        self._check_open()
        database = self._database
        durability = database._durability
        commit = _Commit()
        with database._table_gates.write(table):
            yield commit
            result = commit.rowid
            if durability is None:
                database._journal_record(
                    kind, table, payload, result, session=self.name
                )
            else:
                # write-ahead contract: the journal append (and its group
                # commit) completes before the gate releases, i.e. before
                # any other operation can observe the change — the file
                # I/O inside this critical section is a reasoned RL005 ignore.
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
                    durability.append_record(  # reprolint: ignore[RL005] the commit point
                        WalRecord(sequence=sequence, kind=kind, table=table,
                                  **wal_fields)
                    )
        if durability is not None and durability.snapshot_due():
            database.snapshot()

    def _check_row_absorbable(
        self, table: str, values: Mapping[str, Union[int, float]]
    ) -> None:
        """Raise what an update-absorbing access path of ``table`` would
        raise on ``values`` — asked before anything is appended, tombstoned
        or logged, so a refused row leaves no trace."""
        for (owner, column_name), path in self._database._access_paths.items():
            if (owner == table and path.supports_updates
                    and column_name in values):
                path.check_insertable(values[column_name])

    def _insert(
        self,
        table: str,
        values: Mapping[str, Union[int, float]],
        counters: Optional[CostCounters],
    ) -> int:
        """Append one row; the caller holds the table's write gate.

        The row is appended to every column of the table, so existing row
        positions never shift.  Every configured access path stays
        consistent: paths that support updates absorb the insert through
        their pending queues (merge on demand); every other one is rebuilt
        over the grown column from its recorded mode and options — the
        honest cost of a physical design without update support, and
        exactly what the updatable paths avoid.
        """
        database = self._database
        owning_table = database.table(table)
        self._check_row_absorbable(table, values)
        rowid = owning_table.row_count
        owning_table.append_rows(dict(values), counters=counters)
        database.memory.set_usage(f"table:{table}", owning_table.nbytes)
        paths = database._access_paths
        for (owner, column_name), path in list(paths.items()):
            if owner != table:
                continue
            # the absorb/rebuild additionally holds the owning access-path
            # lock, so even a caller that bypasses the gates cannot race a
            # selection through this path
            with database._path_locks.lock_for(("path", table, column_name)):
                if path.supports_updates:
                    path.insert(values[column_name], counters, rowid=rowid)
                else:
                    paths[(table, column_name)] = database._rebuilt_path(
                        table, column_name
                    )
                    path.close()
                # absorbing or rebuilding
                # changes the auxiliary footprint
                database._record_index_memory(table, column_name)
        with database._engine_stats_lock:
            database.rows_inserted += 1
        return rowid

    def _delete(
        self, table: str, rowid: int, counters: Optional[CostCounters]
    ) -> bool:
        """Tombstone one row; the caller holds the table's write gate.
        Returns False (and changes nothing) when it already was deleted.

        The base columns are not compacted — the table tombstones the
        position, so every other rowid stays stable — and updatable access
        paths queue a pending delete, merged on demand by the next query
        that touches the deleted value's range.  All other access paths are
        filtered against the tombstones at query time.
        """
        database = self._database
        if not database.table(table).delete(rowid):
            return False
        for (owner, column_name), path in database._access_paths.items():
            if owner != table:
                continue
            if path.supports_updates:
                with database._path_locks.lock_for(("path", table, column_name)):
                    path.delete(rowid, counters)
            database._record_index_memory(table, column_name)
        if counters is not None:
            counters.record_move(1)
        with database._engine_stats_lock:
            database.rows_deleted += 1
        return True

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
        with self._commit_dml("insert", table, row, values=row) as commit:
            commit.rowid = self._insert(table, row, counters)
        with self._lock:
            self._stats.rows_inserted += 1
        return commit.rowid

    def delete_row(
        self,
        table: str,
        rowid: int,
        counters: Optional[CostCounters] = None,
    ) -> None:
        """Delete the row identified by ``rowid`` (idempotent), fenced.

        A repeated delete is journaled like the first but changes nothing,
        so it is not counted in :meth:`stats`."""
        rowid = int(rowid)
        with self._commit_dml("delete", table, rowid, rowid=rowid):
            deleted = self._delete(table, rowid, counters)
        if deleted:
            with self._lock:
                self._stats.rows_deleted += 1

    def update_row(
        self,
        table: str,
        rowid: int,
        values: Mapping[str, Union[int, float]],
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Update = delete + insert under one fence; returns the new rowid.

        ``values`` names the columns to change; unmentioned columns keep the
        old row's values.  This mirrors how the update machinery treats an
        update as a delete/insert pair, so the row receives a fresh rowid.
        """
        rowid = int(rowid)
        changed = dict(values)
        with self._commit_dml(
            "update", table, (rowid, changed), old_rowid=rowid, values=changed
        ) as commit:
            owning_table = self._database.table(table)
            if owning_table.is_deleted(rowid):
                raise KeyError(f"row {rowid} of table {table!r} has been deleted")
            if not 0 <= rowid < owning_table.row_count:
                raise KeyError(f"unknown row identifier {rowid} in table {table!r}")
            unknown = set(changed) - set(owning_table.column_names)
            if unknown:
                raise KeyError(f"no columns {sorted(unknown)} in table {table!r}")
            row = {
                name: values_array[0]
                for name, values_array in owning_table.fetch_rows(
                    [rowid], counters=counters
                ).items()
            }
            row.update(changed)
            # validate the merged row against every access path and column
            # dtype *before* tombstoning, so a rejected value cannot
            # silently lose the row
            self._check_row_absorbable(table, row)
            for name, value in row.items():
                owning_table.column(name).dtype.validate_array(
                    np.atleast_1d(np.asarray(value))
                )
            self._delete(table, rowid, counters)
            commit.rowid = self._insert(table, row, counters)
        with self._lock:
            self._stats.rows_updated += 1
        return commit.rowid

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
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Session({self.name!r}, {state}, db={self._database.name!r})"
