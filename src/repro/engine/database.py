"""The Database: schema, physical design and lifecycle.

A :class:`Database` owns tables and, for each (table, column), an *indexing
mode*: a name from the one strategy registry
(:func:`~repro.core.strategies.available_strategies`) — the whole spectrum
the tutorial compares, from the offline full index over online tuning and
soft indexes to the cracking family, adaptive merging and the hybrids.
:meth:`Database.set_indexing` is the only physical-design switch: it
installs the structure registered under that name as the column's *access
path* and records the mode and its options, which the database alone owns.
Every structure satisfies the access-path contract
(:class:`~repro.core.access_path.SearchStrategy`) itself, and the engine
queries, updates, reports on, rebuilds and releases it through that
contract only and never asks which technique is behind it.  ``"scan"`` (the
default) means "no access path": there is nothing to build, and selections
scan the base column.

The database executes nothing itself.  Every operation enters through a
:class:`~repro.engine.session.Session` (``db.session()``), which holds the
table gate and the access-path locks of :mod:`repro.engine.concurrency`,
runs the DML bodies and calls back into the access-path dispatch
(:meth:`Database.index_select`) and the linearization journal.  Deleted
rows are the tombstones each :class:`~repro.columnstore.table.Table`
keeps; DDL takes the table's write gate inside the schema lock, so no
query or DML is in flight on a table while its design changes.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.column import Column
from repro.columnstore.select import RangePredicate, scan_select
from repro.columnstore.storage import MemoryTracker
from repro.columnstore.table import Table
from repro.core.access_path import SearchStrategy
from repro.core.strategies import (
    available_strategies,
    check_options,
    create_strategy,
    rebuild,
)
from repro.cost.counters import CostCounters
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    has_durable_state,
)
from repro.durability.record import ColumnDump, WalRecord
from repro.durability.snapshot import IndexModeState, SnapshotState, TableState
from repro.engine.concurrency import (
    AccessPathLockManager,
    TableGate,
    TableGateRegistry,
)
from repro.engine.executor import Executor
from repro.engine.planner import Plan, Planner
from repro.engine.query import Query
from repro.engine.session import OperationRecord, Session


@guarded_by(
    # engine-level bookkeeping shared by every session
    queries_executed="_engine_stats_lock",
    rows_inserted="_engine_stats_lock",
    rows_deleted="_engine_stats_lock",
    _journal="_engine_stats_lock",
    _op_sequence="_engine_stats_lock",
)
class Database:
    """An in-memory column-store database with pluggable physical design."""

    def __init__(
        self,
        name: str = "db",
        data_dir: Optional[Union[str, Path]] = None,
        durability: Optional[DurabilityConfig] = None,
        fault_injector=None,
    ) -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        # (table, column) -> mode string
        self._modes: Dict[Tuple[str, str], str] = {}
        # (table, column) -> options passed to set_indexing (for rebuilds)
        self._mode_options: Dict[Tuple[str, str], Dict] = {}
        # (table, column) -> the access path installed for that mode
        self._access_paths: Dict[Tuple[str, str], SearchStrategy] = {}
        # per-access-path execution locks shared by every session
        self._path_locks = AccessPathLockManager()
        # per-table readers-writer gates: queries shared, DML exclusive
        self._table_gates = TableGateRegistry()
        # guards engine-level bookkeeping (queries_executed, the operation
        # journal) across sessions
        self._engine_stats_lock = threading.Lock()
        # journal-order mutex: held across sequence assignment *and* the
        # WAL append so records reach the journal in linearization order
        # (two sessions writing different tables hold different gates, so
        # the gates alone cannot order their appends; WalScan treats a
        # non-increasing sequence as corruption).  Taken only on durable
        # paths; ordering: table gates > this > _engine_stats_lock / the
        # WAL's internal mutex.
        self._wal_order_lock = threading.Lock()
        # schema mutex: create_table/drop_table/set_indexing run under it
        # (the last two also take their table's write gate inside it), and
        # snapshot() holds it across its all-gate quiesce — DML is
        # excluded by the gates, DDL by this lock, so the snapshot's cut
        # (tables, modes, high-water sequence) is consistent with the
        # journal.  Ordering: this > table gates.
        self._schema_lock = threading.Lock()
        #: when True, every session operation is appended to the journal
        #: (the linearized history replayed by the sequential oracle)
        self.record_journal = False
        self._journal: List[OperationRecord] = []
        self._op_sequence = 0
        self.planner = Planner(self)
        self.executor = Executor(self)
        self.queries_executed = 0
        self.rows_inserted = 0
        self.rows_deleted = 0
        #: durable journal + snapshot manager (None = in-memory only, the
        #: default: the hooks below are single is-None checks, zero cost)
        self._durability: Optional[DurabilityManager] = None
        #: populated by Database.open with what recovery did
        self.recovery_report = None
        if data_dir is not None:
            if has_durable_state(data_dir):
                raise ValueError(
                    f"data directory {str(data_dir)!r} already holds durable "
                    "state; use Database.open() to recover it instead of "
                    "constructing a fresh database over it"
                )
            self._durability = DurabilityManager(
                data_dir, config=durability, injector=fault_injector
            )

    # -- durability ---------------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: Union[str, Path],
        name: Optional[str] = None,
        durability: Optional[DurabilityConfig] = None,
        fault_injector=None,
    ) -> "Database":
        """Recover a database from ``data_dir`` (crash-safe open).

        Scans the journal, loads the newest valid snapshot into columns
        with room for the rows the surviving journal tail appends, replays
        that tail in runs of DML on one table through the session's bulk
        DML body (tolerating a torn final record), resumes the
        linearization counter, and re-attaches the durability layer.  The
        recovery details — snapshot used, replayed operation counts,
        elapsed time, any tolerated torn tail — are on
        :attr:`recovery_report`.  Raises
        :class:`~repro.durability.recovery.RecoveryError` instead of ever
        building a silently incomplete state, and
        :class:`~repro.durability.lock.DataDirectoryLocked` while another
        process holds ``data_dir`` (so does ``Database(data_dir=...)``).
        """
        # imported lazily: recovery sits above the engine in the layering
        from repro.durability.recovery import recover

        database, _ = recover(
            data_dir, name=name, config=durability, injector=fault_injector
        )
        return database

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The attached durability manager (None = in-memory only)."""
        return self._durability

    def snapshot(self) -> Path:
        """Write a durable snapshot now; returns the snapshot's path.

        Quiesces the store (every table gate held exclusive), captures a
        consistent cut — column arrays, tombstones, indexing modes, the
        journal high-water sequence — writes it atomically, truncates the
        journal through the high-water mark, and trims the in-memory
        journal the same way.  Requires durability (``data_dir``).
        """
        manager = self._durability
        if manager is None:
            raise RuntimeError(
                "durability is not enabled; construct the database with "
                "data_dir=... or recover one with Database.open()"
            )
        # the schema lock (held before the gates, matching every DDL path)
        # extends the quiesce to create_table/drop_table/set_indexing: the
        # gates only exclude DML and queries, so without it a racing DDL op
        # could land in the captured tables *and* carry a sequence past the
        # recorded high-water mark, making recovery replay it twice
        with self._schema_lock:
            with self._table_gates.write_all(self.table_names):
                state = self._capture_snapshot_state()
                # the dump (and its fsyncs) runs inside the quiesced section
                # by design: a consistent cut needs no concurrent DML, and
                # it runs only when a caller asks for a snapshot
                path = manager.write_snapshot(state)  # reprolint: ignore[RL005] a consistent cut
                self._trim_journal(state.high_water)
        return path

    def _capture_snapshot_state(self) -> SnapshotState:
        """Capture a consistent dump; the caller holds every write gate."""
        with self._engine_stats_lock:
            op_sequence = self._op_sequence
        tables = []
        for table_name in self.table_names:
            table = self._tables[table_name]
            # the columns' own arrays: the caller's write gates keep every
            # DML out until the dump is on disk
            dumps = tuple(
                ColumnDump(column_name, column.dtype, column.values)
                for column_name, column in table.columns.items()
            )
            tables.append(
                TableState(name=table_name, columns=dumps,
                           deleted_rows=tuple(table.tombstones.tolist()))
            )
        modes = tuple(
            IndexModeState(
                table=table_name,
                column=column_name,
                mode=mode,
                options=dict(self._mode_options.get((table_name, column_name), {})),
            )
            for (table_name, column_name), mode in sorted(self._modes.items())
        )
        return SnapshotState(
            name=self.name,
            high_water=op_sequence - 1,
            op_sequence=op_sequence,
            tables=tuple(tables),
            modes=modes,
        )

    def _next_sequence(self) -> int:
        """Consume one linearization sequence number (no journal entry)."""
        with self._engine_stats_lock:
            sequence = self._op_sequence
            self._op_sequence += 1
            return sequence

    def _durable_schema_record(self, kind: str, table: str, **fields) -> None:
        """Journal one schema operation (no-op without durability).

        The caller holds ``_schema_lock``; the order mutex additionally
        spans sequence assignment and the append so a schema record can
        never reach the WAL out of linearization order relative to a
        concurrent DML append on some table gate.
        """
        manager = self._durability
        if manager is None:
            return
        with self._wal_order_lock:
            sequence = self._next_sequence()
            manager.append_record(
                WalRecord(sequence=sequence, kind=kind, table=table, **fields)
            )

    def close(self) -> None:
        """Flush and close the durability layer and release what the
        access paths hold — fan-out pools, budgeted storage (idempotent).

        The in-memory state stays usable (paths re-create what they need
        lazily), but the journal stops: a closed database no longer
        persists anything.  Sessions hold no resources; closing one only
        marks it closed.
        """
        for path in list(self._access_paths.values()):
            path.close()
        manager = self._durability
        if manager is not None:
            manager.close()

    # -- sessions -----------------------------------------------------------------

    def session(
        self, name: Optional[str] = None, max_workers: Optional[int] = None
    ) -> Session:
        """Open a lock-aware session handle, the one way operations enter
        the engine (use it context-managed).

        All sessions on one database interleave safely: queries, batches
        and DML from any of them, on any caller threads, are equivalent to
        a sequential per-access-path ordering of the same operations.
        ``max_workers`` is accepted and ignored (not validated either): a
        session starts no thread.
        """
        return Session(self, name=name)

    # -- schema management --------------------------------------------------------

    def create_table(
        self, name: str, columns: Mapping[str, Union[Column, np.ndarray, Iterable]]
    ) -> Table:
        """Create and register a table from a mapping column-name -> values."""
        # the schema lock serializes DDL against snapshot(): a table born
        # while a snapshot captures would otherwise land in the snapshot
        # *and* journal a sequence past its high-water mark, so recovery
        # would replay the creation onto an already-existing table
        with self._schema_lock:
            if name in self._tables:
                raise ValueError(f"table {name!r} already exists")
            table = Table(name, columns)
            self._tables[name] = table
            # a table born from data must be reconstructible from the
            # journal alone (no snapshot may ever cover it), so the record
            # carries the full initial column arrays
            self._durable_schema_record(
                "create_table",
                name,
                columns=tuple(
                    ColumnDump(column_name, column.dtype, column.values)
                    for column_name, column in table.columns.items()
                ),
            )
            return table

    @property
    def memory(self) -> MemoryTracker:
        """What every table and installed access path holds right now, read
        at call time under the schema lock: ``table:{name}`` per table and
        ``index:{table}.{column}`` per path holding any auxiliary bytes (no
        entry for a path holding none: a cracker column no query has built
        yet, a tuner without an index)."""
        memory = MemoryTracker()
        with self._schema_lock:
            for name, table in self._tables.items():
                memory.set_usage(f"table:{name}", table.nbytes)
            for (table, column), path in self._access_paths.items():
                nbytes = path.nbytes
                if nbytes:
                    memory.set_usage(f"index:{table}.{column}", nbytes)
        return memory

    def drop_table(self, name: str) -> None:
        """Drop a table and all physical structures attached to it (its
        tombstones go with its :class:`Table`)."""
        # under the schema lock so a concurrent snapshot's captured table
        # set stays consistent with its high-water mark (see create_table),
        # and under the table's write gate so no query is mid-flight on it
        with self._schema_lock:
            if name not in self._tables:
                raise KeyError(f"no table {name!r}")
            with self._table_gates.write(name):
                del self._tables[name]
                for key in [k for k in self._access_paths if k[0] == name]:
                    self._access_paths.pop(key).close()
                self._modes = {
                    k: v for k, v in self._modes.items() if k[0] != name
                }
                self._mode_options = {
                    k: v for k, v in self._mode_options.items() if k[0] != name
                }
                self._durable_schema_record("drop_table", name)

    def table(self, name: str) -> Table:
        """Return the table named ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r}; available: {sorted(self._tables)}"
            ) from None

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- physical design ------------------------------------------------------------

    def set_indexing(self, table: str, column: str, mode: str, **options) -> None:
        """Choose the indexing mode for selections on ``table.column``."""
        known = available_strategies()
        if mode not in known:
            raise ValueError(f"unknown indexing mode {mode!r}; available: {known}")
        # a refused option leaves the installed path — its pool included —
        # and the journal exactly as they were
        check_options(mode, options)
        # under the schema lock so a concurrent snapshot's captured mode
        # set stays consistent with its high-water mark (see create_table),
        # and under the table's write gate so the switch cannot land
        # between a query's plan and its execution, nor beside DML
        with self._schema_lock:
            owning_table = self.table(table)
            if column not in owning_table:
                raise KeyError(f"no column {column!r} in table {table!r}")
            key = (table, column)
            with self._table_gates.write(table):
                # build first, swap second, release the old path last: a
                # structure refusing an option's value must leave the
                # installed path exactly as it was.  A scan installs no
                # access path.
                strategy = None if mode == "scan" else create_strategy(
                    mode, owning_table.column(column), table=owning_table, **options,
                )
                if strategy is not None and strategy.supports_updates:
                    # the new column treats every base position as a live
                    # row; queue the table's tombstones, in one call, so
                    # rows deleted under an earlier mode stay deleted (its
                    # answers are not filtered)
                    strategy.delete_base_rows(owning_table.tombstones)
                previous = self._access_paths.get(key)
                if strategy is None:
                    self._access_paths.pop(key, None)
                else:
                    self._access_paths[key] = strategy
                if previous is not None:
                    previous.close()
                # recorded only once the access path exists, so a rejected
                # option leaves the previous mode (and the journal) untouched
                self._modes[key] = mode
                self._mode_options[key] = dict(options)
                # journaled so recovery re-installs the mode (options must
                # stay JSON-serializable scalars, which every registered
                # strategy's are)
                self._durable_schema_record(
                    "set_indexing", table, column=column, mode=mode,
                    options=dict(options),
                )

    def indexing_mode(self, table: str, column: str) -> Optional[str]:
        """Current indexing mode of ``table.column`` (None = never set = scan)."""
        return self._modes.get((table, column))

    def access_path(self, table: str, column: str):
        """The physical access-path object for ``table.column`` (or None)."""
        return self._access_paths.get((table, column))

    def _rebuilt_path(self, table: str, column: str) -> SearchStrategy:
        """The access path to install over ``table.column`` after DML its path
        cannot absorb: the recorded mode and options over the changed column,
        plus what the mode carries across.  The caller closes the old path."""
        key = (table, column)
        owning_table = self._tables[table]
        return rebuild(
            self._modes[key], self._access_paths[key], owning_table.column(column),
            table=owning_table, **self._mode_options[key],
        )

    # -- visibility (each table keeps its tombstones) ------------------------------------

    def visible_positions(
        self, table: str, positions: np.ndarray, aligned: Optional[dict] = None
    ) -> np.ndarray:
        """:meth:`Table.visible_positions` of ``table``."""
        return self.table(table).visible_positions(positions, aligned)

    def visible_row_count(self, table: str) -> int:
        """Rows of ``table`` visible to queries (total minus tombstones)."""
        return self.table(table).visible_row_count

    # -- access-path dispatch (used by the executor) -------------------------------------

    def index_select(
        self,
        table: str,
        column: str,
        low: Optional[float],
        high: Optional[float],
        counters: CostCounters,
        answer: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Answer a selection through the configured access path, or take
        the ``answer`` the path already gave for it (a batch pass) through
        the same tombstone filter."""
        path = self._access_paths.get((table, column))
        if path is None:
            positions = scan_select(
                self.table(table).column(column), RangePredicate(low, high),
                counters,
            )
        else:
            positions = path.search(low, high, counters) if answer is None else answer
            if path.supports_updates:
                # updatable strategies receive every DML delete themselves,
                # so their answers already exclude tombstoned rows
                return positions
        return self.visible_positions(table, positions)

    # -- query planning -------------------------------------------------------------------

    def plan(self, query: Query) -> Plan:
        """Plan a query without executing it (EXPLAIN)."""
        return self.planner.plan(query)

    # -- linearization journal ------------------------------------------------------------

    def _journal_record(
        self, kind: str, table: str, payload, result, session: str = ""
    ) -> int:
        """Stamp one operation with the next linearization sequence number.

        Called by sessions while the operation still holds its gate / path
        locks, so sequence order restricted to any single access path (and
        to any single table's DML-vs-query order) matches the order the
        operations actually touched that path.  Records are only kept when
        :attr:`record_journal` is set; the sequence always advances.  The
        ``queries_executed`` counter piggybacks on the same critical
        section — every query flows through here exactly once.
        """
        with self._engine_stats_lock:
            sequence = self._op_sequence
            self._op_sequence += 1
            if kind == "query":
                self.queries_executed += 1
            if self.record_journal:
                self._journal.append(
                    OperationRecord(
                        sequence=sequence,
                        kind=kind,
                        table=table,
                        payload=payload,
                        result=result,
                        session=session,
                    )
                )
        return sequence

    def operation_journal(self) -> List[OperationRecord]:
        """Snapshot of the recorded operation journal, in sequence order."""
        with self._engine_stats_lock:
            return list(self._journal)

    def clear_journal(self) -> None:
        """Drop all recorded journal entries (the sequence keeps advancing)."""
        with self._engine_stats_lock:
            self._journal.clear()

    def _trim_journal(self, high_water: int) -> None:
        """Drop in-memory journal entries a snapshot now covers."""
        with self._engine_stats_lock:
            self._journal = [
                record for record in self._journal
                if record.sequence > high_water
            ]

    # -- introspection --------------------------------------------------------------------

    def table_gate(self, table: str) -> TableGate:
        """The readers-writer gate fencing DML on ``table`` (introspection:
        ``fenced_writes`` counts DML operations that had to wait)."""
        return self._table_gates.gate(table)

    def physical_design_report(self) -> List[Dict[str, str]]:
        """One record per configured access path (for documentation / examples)."""
        report = []
        for (table, column), mode in sorted(self._modes.items()):
            path = self._access_paths.get((table, column))
            report.append(
                {
                    "table": table,
                    "column": column,
                    "mode": mode,
                    "structure": (
                        path.structure_description if path is not None else ""
                    ),
                }
            )
        return report
