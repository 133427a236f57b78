"""The session: the one door into the engine for queries, batches and DML.

Adaptive indexing's promise (EDBT 2012 tutorial, Section 3) is that index
refinement rides along with *live* query traffic — there is no offline
window in which the physical design is rebuilt.  That only works if the
concurrent path is the default path: a :class:`Session` is the handle
through which every operation — a single query, a whole batch, an
insert/delete/update — runs under the same two-level concurrency protocol
(:mod:`repro.engine.concurrency`):

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

Sessions are cheap: they own no data and start no thread, only a few
statistics counters.  Every operation runs on the calling thread; callers
who want overlap bring their own threads (a pool of theirs calling
:meth:`Session.execute`), and one session may be shared across them.
Sessions are obtained from ``Database.session()`` and nowhere else — the
database itself executes nothing.  Use them context-managed::

    with db.session() as session:
        result = session.query("T").where("a", lo, hi).agg("sum", "b").run()
        session.insert_row("T", {"a": 7, "b": 1.5})   # fenced, not racing
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    rows_inserted: int = 0
    rows_deleted: int = 0
    rows_updated: int = 0


@dataclass
class _Commit:
    """What a DML body hands :meth:`Session._commit_dml` to journal: per
    operation, the row identifier it assigned (None for a delete; no list
    at all for a lone delete)."""

    rowids: Optional[List[Optional[int]]] = None


#: one operation of a DML unit, as :meth:`Session._commit_dml` journals it:
#: (kind, in-memory journal payload, durable record fields)
_Journaled = Tuple[str, object, Dict[str, object]]


_SESSION_IDS = itertools.count(1)


@guarded_by(
    _closed="_lock",
    _stats="_lock",
)
class Session:
    """A lock-aware handle on a :class:`~repro.engine.database.Database`.

    Thread-safe and thread-free: every operation runs on the calling
    thread, one session may be shared across threads, and any number of
    sessions on one database interleave safely — equivalence to a
    sequential per-access-path ordering is the invariant the property
    suite pins.
    """

    def __init__(self, database, name: Optional[str] = None) -> None:
        self._database = database
        self.name = name or f"session-{next(_SESSION_IDS)}"
        self._closed = False
        self._lock = threading.Lock()
        self._stats = SessionStats(name=self.name)

    # -- lifecycle -----------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self) -> None:
        """Mark the session closed (idempotent); later operations raise."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"session {self.name!r} is closed")

    # -- queries -------------------------------------------------------------------

    def query(self, table: str) -> QueryBuilder:
        """Fluent builder bound to this session's front door."""
        return QueryBuilder(table, runner=self.execute)

    def execute(self, query: Query) -> QueryResult:
        """Plan and execute one query under the full locking protocol: a
        batch of one (:meth:`execute_many`), counted as a query and not as
        a batch.

        Safe to call concurrently with batches and DML from any session or
        thread.
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
    def _commit_dml(self, table: str, operations: Sequence[_Journaled]):
        """The one DML commit path: fence, apply, journal.

        The ``with`` block applies ``operations`` under the table's write
        gate and sets ``rowids`` on the yielded :class:`_Commit` to the row
        identifier each assigned (a delete assigns none).  Each operation
        is then journaled as its own record with its own sequence, in
        order: its kind, the payload the in-memory journal keeps and the
        fields the durable record carries beside ``rowid`` (the assigned
        identifier unless the operation names one).
        """
        self._check_open()
        database = self._database
        durability = database._durability
        commit = _Commit()
        with database._table_gates.write(table):
            yield commit
            rowids = commit.rowids or [None] * len(operations)
            for (kind, payload, wal_fields), result in zip(operations, rowids):
                if durability is None:
                    database._journal_record(
                        kind, table, payload, result, session=self.name
                    )
                    continue
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
                    durability.append_record(  # reprolint: ignore[RL005] the commit point
                        WalRecord(sequence=sequence, kind=kind, table=table,
                                  **{"rowid": result, **wal_fields})
                    )

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
            if owner == table and path.supports_updates:
                with database._path_locks.lock_for(("path", table, column_name)):
                    path.delete(rowid, counters)
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
        with self._commit_dml(table, [("insert", row, {"values": row})]) as commit:
            commit.rowids = [self._insert(table, row, counters)]
        with self._lock:
            self._stats.rows_inserted += 1
        return commit.rowids[0]

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
        with self._commit_dml(table, [("delete", rowid, {"rowid": rowid})]):
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
        with self._commit_dml(table, [(
            "update", (rowid, changed), {"old_rowid": rowid, "values": changed}
        )]) as commit:
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
            commit.rowids = [self._insert(table, row, counters)]
        with self._lock:
            self._stats.rows_updated += 1
        return commit.rowids[0]

    def _apply_dml_run(
        self,
        table: str,
        operations: Sequence[Tuple[str, Optional[int], Optional[Mapping]]],
    ) -> List[Optional[int]]:
        """Apply consecutive DML operations on ``table`` as one unit under
        its write gate; returns the rowid each assigned (None for a delete).

        An operation is ``("insert", None, row)``, ``("delete", rowid,
        None)`` or ``("update", old rowid, changed columns)``, meaning what
        :meth:`insert_row`, :meth:`delete_row` and :meth:`update_row` mean,
        and the state left is the one they leave applied one by one.  Every
        row is checked first (the access paths' ``check_insertable``, the
        columns' types, a deleted or unknown rowid), so a refused one
        changes nothing.  Then the table takes one ``append_rows`` and one
        ``delete_many``, each updatable access path queues the inserts and
        deletes in operation order (a repeated delete changes nothing, as
        in :meth:`delete_row`), every other path is rebuilt once, and each
        operation is journaled as its own record.  Recovery replays its
        journal tail through here.
        """
        database = self._database
        journaled: List[_Journaled] = []
        for kind, rowid, values in operations:
            values = None if values is None else dict(values)
            if kind == "insert":
                journaled.append((kind, values, {"values": values}))
            elif kind == "delete":
                journaled.append((kind, int(rowid), {"rowid": int(rowid)}))
            else:
                journaled.append((kind, (int(rowid), values),
                                  {"old_rowid": int(rowid), "values": values}))
        with self._commit_dml(table, journaled) as commit:
            owning_table = database.table(table)
            first_rowid = owning_table.row_count
            appended: List[dict] = []  # per new row: column -> 1-element array
            queued: List[Tuple[int, Optional[dict]]] = []  # (rowid, row or None = delete)
            deleted: set = set()
            rowids: List[Optional[int]] = []
            stats = {"insert": 0, "delete": 0, "update": 0}

            def is_deleted(rowid: int) -> bool:
                return rowid in deleted or owning_table.is_deleted(rowid)

            for kind, payload, _ in journaled:
                if kind == "delete":
                    if not 0 <= payload < first_rowid + len(appended):
                        raise KeyError(
                            f"unknown row identifier {payload} in table {table!r}")
                    if not is_deleted(payload):
                        deleted.add(payload)
                        queued.append((payload, None))
                        stats[kind] += 1
                    rowids.append(None)
                    continue
                if kind == "insert":
                    row = payload
                else:
                    rowid, changed = payload
                    if is_deleted(rowid):
                        raise KeyError(
                            f"row {rowid} of table {table!r} has been deleted")
                    if not 0 <= rowid < first_rowid + len(appended):
                        raise KeyError(
                            f"unknown row identifier {rowid} in table {table!r}")
                    unknown = set(changed) - set(owning_table.column_names)
                    if unknown:
                        raise KeyError(f"no columns {sorted(unknown)} in table {table!r}")
                    old = (owning_table.fetch_rows([rowid]) if rowid < first_rowid
                           else appended[rowid - first_rowid])
                    row = {name: values_array[0] for name, values_array in old.items()}
                    row.update(changed)
                    deleted.add(rowid)
                    queued.append((rowid, None))
                self._check_row_absorbable(table, row)
                appended.append(owning_table.validate_rows(row))
                rowids.append(first_rowid + len(appended) - 1)
                queued.append((rowids[-1], row))
                stats[kind] += 1

            if appended:
                owning_table.append_rows({
                    name: np.concatenate([row[name] for row in appended])
                    for name in owning_table.column_names
                })
            if deleted:
                owning_table.delete_many(sorted(deleted))
            paths = database._access_paths
            for (owner, column_name), path in list(paths.items()):
                if owner != table or not (appended or path.supports_updates):
                    continue
                with database._path_locks.lock_for(("path", table, column_name)):
                    if not path.supports_updates:
                        paths[(table, column_name)] = database._rebuilt_path(
                            table, column_name
                        )
                        path.close()
                        continue
                    for rowid, row in queued:
                        if row is None:
                            path.delete(rowid, None)
                        else:
                            path.insert(row[column_name], None, rowid=rowid)
            with database._engine_stats_lock:
                database.rows_inserted += len(appended)
                database.rows_deleted += len(deleted)
            commit.rowids = rowids
        with self._lock:
            self._stats.rows_inserted += stats["insert"]
            self._stats.rows_deleted += stats["delete"]
            self._stats.rows_updated += stats["update"]
        return rowids

    # -- introspection -------------------------------------------------------------

    def stats(self) -> SessionStats:
        """A snapshot of this session's operation counters."""
        with self._lock:
            return SessionStats(
                name=self._stats.name,
                queries_executed=self._stats.queries_executed,
                batches_executed=self._stats.batches_executed,
                rows_inserted=self._stats.rows_inserted,
                rows_deleted=self._stats.rows_deleted,
                rows_updated=self._stats.rows_updated,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Session({self.name!r}, {state}, db={self._database.name!r})"
