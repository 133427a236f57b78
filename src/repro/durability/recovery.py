"""Crash recovery: latest valid snapshot + journal tail replay.

:func:`recover` (the engine calls it through ``Database.open``) rebuilds a
database from a data directory, holding the directory's lock
(:mod:`repro.durability.lock`) while it reads it:

1. scan the journal (:meth:`WriteAheadLog.scan`): a torn final record is
   tolerated and truncated, any other damage raises.  The scan does not
   depend on the snapshot, and it says how many rows the tail past each
   snapshot's high-water mark appends to each table;
2. pick the newest snapshot that validates (checksums, structure), its
   sections read into arrays with room for exactly those rows; a corrupt
   newer snapshot is skipped *only* when the surviving journal still
   covers everything past the older snapshot's high-water mark —
   otherwise recovery fails loudly with the corruption diagnostic;
3. apply the snapshot (tables around the arrays its column sections were
   read into, with no copy, holding the section's rows; tombstones, then
   ``set_indexing`` per recorded mode — adaptive structures are derived
   state and rebuild from the base columns, re-absorbing the tombstones);
4. replay every journal record past the high-water mark **in runs**: each
   maximal run of consecutive DML records on one table is one unit of the
   session's bulk DML body (one append, one tombstone merge, the updatable
   paths' queues in record order, one rebuild of any other path), and a
   schema record is applied on its own (a journaled ``create_table`` with
   room for the rows the tail appends to it).  Every insert/update must
   land on the rowid the original execution recorded (one comparison per
   run) — the recovered state is the per-record replay's state, which is
   the sequential oracle's state, not a lookalike;
5. resume the linearization counter past everything replayed and attach a
   live :class:`DurabilityManager` so the database journals again.

The invariant the fault suite pins: for *any* crash point, recovery
either reproduces the state of a surviving-journal-prefix replay
bit-for-bit, or raises :class:`RecoveryError` with a diagnostic naming
the damaged file and byte — never a silently wrong database.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.columnstore.column import Column
from repro.core.strategies import accepted_options
from repro.durability.faults import FaultInjector
from repro.durability.lock import DirectoryLock
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    has_durable_state,
    snapshot_directory,
    wal_directory,
)
from repro.durability.record import WalRecord
from repro.durability.snapshot import (
    SnapshotCorruptionError,
    SnapshotState,
    SnapshotStore,
    snapshot_high_water,
)
from repro.durability.wal import WalCorruptionError, WriteAheadLog

if TYPE_CHECKING:  # cycle guard: the engine imports durability submodules
    from repro.engine.database import Database


class RecoveryError(RuntimeError):
    """Recovery cannot restore a trustworthy state (fails loudly)."""


@dataclass
class RecoveryReport:
    """What a recovery did, for operators and the CLI."""

    data_dir: str
    elapsed_seconds: float = 0.0
    snapshot_path: Optional[str] = None
    snapshot_high_water: Optional[int] = None
    #: diagnostics of snapshots that failed validation and were skipped
    skipped_snapshots: List[str] = field(default_factory=list)
    #: replayed journal operations by kind
    replayed_operations: Dict[str, int] = field(default_factory=dict)
    #: total journal records on disk (including ones the snapshot covers)
    wal_records: int = 0
    #: diagnostic of a tolerated torn final record (None = clean tail)
    torn_tail: Optional[str] = None
    next_sequence: int = 0

    @property
    def replayed_total(self) -> int:
        return sum(self.replayed_operations.values())


#: registry names journaled by earlier versions that no longer exist, and
#: the name each is recovered as: the one that answered the same queries
#: without the retired refinement (sorted small pieces, radix clusters,
#: row-position partitions under DML)
_RETIRED_MODES = {
    "cracking-sort-pieces": "cracking",
    "hybrid-crack-radix": "hybrid-crack-crack",
    "hybrid-radix-radix": "hybrid-crack-crack",
    "partitioned-updatable-cracking": "updatable-cracking",
}


def _current_mode(mode: str, options: Dict[str, object]) -> Tuple[str, Dict[str, object]]:
    """A recorded ``set_indexing`` mode and options as the registry takes
    them today: a retired name is renamed, and only the options its row
    accepts are kept (earlier versions journaled retired options and ones
    that built another name's structure: a hybrid's modes, partitions, and
    the partitioned rows' ``repartition``, ``max_partition_rows`` and
    ``split_threshold``)."""
    mode = _RETIRED_MODES.get(mode, mode)
    accepted = accepted_options(mode)
    return mode, {key: value for key, value in options.items() if key in accepted}


_DML_KINDS = ("insert", "delete", "update")


def _tail_growth(records: List[WalRecord], high_water: int) -> Dict[object, int]:
    """Rows the journal tail past ``high_water`` appends to each table (one
    per insert and per update): keyed by name for a table the snapshot
    holds, and by the sequence of its ``create_table`` record for a table
    the tail creates."""
    growth: Dict[object, int] = {}
    born: Dict[str, int] = {}
    for record in records:
        if record.sequence <= high_water:
            continue
        if record.kind == "create_table":
            born[record.table] = record.sequence
        elif record.kind in ("insert", "update"):
            key = born.get(record.table, record.table)
            growth[key] = growth.get(key, 0) + 1
    return growth


def _choose_snapshot(
    store: SnapshotStore, records: List[WalRecord], report: RecoveryReport
) -> Optional[SnapshotState]:
    """Newest snapshot that validates, its sections read with room for the
    rows the journal tail past its high-water mark (the one its file name
    carries) appends; records skipped ones' diagnostics."""
    for path in reversed(store.paths()):
        growth = _tail_growth(records, snapshot_high_water(path))
        try:
            state = store.load(path, spare=growth)
        except SnapshotCorruptionError as exc:
            report.skipped_snapshots.append(str(exc))
            continue
        report.snapshot_path = str(path)
        report.snapshot_high_water = state.high_water
        return state
    return None


def _journal_columns(dumps, spare: int) -> Dict[str, Column]:
    """Columns of a ``create_table`` record: each copied once, out of the
    record's payload, into an array with ``spare`` rows of room for what
    the journal tail appends."""
    columns = {}
    for dump in dumps:
        rows = len(dump.values)
        values = dump.dtype.empty(rows + spare)
        values[:rows] = dump.values
        columns[dump.name] = Column.adopt(values, dump.name, dump.dtype, length=rows)
    return columns


def _apply_snapshot(database: "Database", state: SnapshotState) -> None:
    """Install a snapshot's tables, tombstones and indexing modes."""
    for table_state in state.tables:
        # each section is a prefix view of the array it was read into,
        # whose rest is the room the journal tail appends into
        table = database.create_table(table_state.name, {
            dump.name: Column.adopt(
                dump.values.base, dump.name, dump.dtype, length=len(dump.values))
            for dump in table_state.columns
        })
        # nothing else can see the table yet: no gate is needed
        table.delete_many(table_state.deleted_rows)
    # modes go in after tombstones: updatable strategies re-absorb the
    # pending deletes inside set_indexing, exactly like a live mode switch
    for mode_state in state.modes:
        mode, options = _current_mode(mode_state.mode, mode_state.options)
        database.set_indexing(mode_state.table, mode_state.column, mode, **options)


def _replay_run(session, run: List[WalRecord]) -> None:
    """Apply a run of DML records on one table in one unit
    (:meth:`Session._apply_dml_run`) and check, in one comparison, that
    every insert and update landed on the rowid the journal recorded."""
    assigned = session._apply_dml_run(
        run[0].table,
        [(record.kind, record.old_rowid if record.kind == "update" else record.rowid,
          record.values) for record in run],
    )
    landing = [(record, rowid) for record, rowid in zip(run, assigned)
               if record.kind != "delete"]
    if not landing:
        return
    diverged = np.flatnonzero(
        np.array([rowid for _, rowid in landing], dtype=np.int64)
        != np.array([record.rowid for record, _ in landing], dtype=np.int64)
    )
    if not len(diverged):
        return
    record, rowid = landing[int(diverged[0])]
    if record.kind == "insert":
        raise RecoveryError(
            f"replay diverged at sequence {record.sequence}: "
            f"insert into {record.table!r} landed on rowid "
            f"{rowid}, journal recorded {record.rowid}"
        )
    raise RecoveryError(
        f"replay diverged at sequence {record.sequence}: "
        f"update of {record.table!r} rowid {record.old_rowid} "
        f"landed on rowid {rowid}, journal recorded "
        f"{record.rowid}"
    )


def _replay_records(
    database: "Database",
    records: List[WalRecord],
    high_water: int,
    report: RecoveryReport,
) -> int:
    """Replay journal records past ``high_water``; returns the last
    sequence seen.  Each maximal run of consecutive DML records on one
    table is applied as one unit through the session's bulk body (a schema
    record, or DML on another table, ends a run); a ``create_table`` is
    built with room for the rows the tail appends to it."""
    tail = [record for record in records if record.sequence > high_water]
    growth = _tail_growth(tail, high_water)
    counts = report.replayed_operations
    # consecutive DML records on one table share a key; a schema record's
    # key is its own sequence
    runs = itertools.groupby(tail, key=lambda record: (
        record.table if record.kind in _DML_KINDS else record.sequence))
    with database.session(name="recovery") as session:
        for _, run in runs:
            run = list(run)
            record = run[0]
            if record.kind in _DML_KINDS:
                _replay_run(session, run)
            elif record.kind == "create_table":
                database.create_table(
                    record.table,
                    _journal_columns(record.columns, growth.get(record.sequence, 0)),
                )
            elif record.kind == "drop_table":
                database.drop_table(record.table)
            else:  # set_indexing (WalRecord rejects unknown kinds on decode)
                mode, options = _current_mode(record.mode, record.options)
                database.set_indexing(record.table, record.column, mode, **options)
            for replayed in run:
                counts[replayed.kind] = counts.get(replayed.kind, 0) + 1
    return tail[-1].sequence if tail else high_water


def recover(
    data_dir: Path,
    name: Optional[str] = None,
    config: Optional[DurabilityConfig] = None,
    injector: Optional[FaultInjector] = None,
) -> Tuple["Database", RecoveryReport]:
    """Rebuild a :class:`Database` from ``data_dir`` (see module docs)."""
    started = time.perf_counter()
    data_dir = Path(data_dir)
    if not has_durable_state(data_dir):
        # an empty/missing directory is a caller mistake, not an empty
        # database: opening it silently would present data loss as success
        raise RecoveryError(
            f"no durable state under {str(data_dir)!r} (expected wal/*.seg "
            "or snapshots/*.snap); seed a fresh directory with "
            "Database(data_dir=...) instead"
        )
    report = RecoveryReport(data_dir=str(data_dir))
    # held until the recovered database's manager holds it too: no other
    # process writes the directory while it is read
    directory_lock = DirectoryLock(data_dir)
    try:
        database = _recover_locked(data_dir, name, config, injector, report)
    finally:
        directory_lock.release()
    report.elapsed_seconds = time.perf_counter() - started
    database.recovery_report = report
    return database, report


def _recover_locked(
    data_dir: Path,
    name: Optional[str],
    config: Optional[DurabilityConfig],
    injector: Optional[FaultInjector],
    report: RecoveryReport,
) -> "Database":
    """:func:`recover`'s body, run holding the directory lock."""
    # imported here, not at module top: the engine imports durability
    # submodules, so a top-level import would be circular
    from repro.engine.database import Database

    # the journal first: it does not depend on the snapshot, and the rows
    # its tail appends size the arrays the snapshot is read into
    try:
        scan = WriteAheadLog.scan(wal_directory(data_dir))
    except WalCorruptionError as exc:
        raise RecoveryError(str(exc)) from exc
    report.wal_records = len(scan.records)
    report.torn_tail = scan.torn_tail

    snapshot = _choose_snapshot(
        SnapshotStore(snapshot_directory(data_dir)), scan.records, report
    )
    high_water = snapshot.high_water if snapshot is not None else -1

    # coverage proof: the earliest surviving journal segment must start at
    # or before the first sequence the snapshot does not cover.  This is
    # what makes skipping a corrupt newer snapshot safe — and what makes
    # it loud when it is not.
    base = scan.base_sequence
    if base is not None and base > high_water + 1:
        skipped = "; ".join(report.skipped_snapshots) or "none"
        raise RecoveryError(
            f"journal starts at sequence {base} but the newest valid "
            f"snapshot covers only through {high_water} "
            f"(skipped snapshots: {skipped}); operations in between are "
            "unrecoverable — refusing to build a silently incomplete state"
        )
    if snapshot is None and report.skipped_snapshots and base is None:
        raise RecoveryError(
            "no valid snapshot and no journal segments; skipped snapshots: "
            + "; ".join(report.skipped_snapshots)
        )

    database = Database(name or (snapshot.name if snapshot else "db"))
    if snapshot is not None:
        _apply_snapshot(database, snapshot)
        with database._engine_stats_lock:
            database._op_sequence = snapshot.op_sequence

    last_sequence = _replay_records(
        database, scan.records, high_water, report
    )

    # resume the linearization counter past everything on disk, so new
    # operations journal with strictly increasing sequences
    with database._engine_stats_lock:
        database._op_sequence = max(database._op_sequence, last_sequence + 1)
        report.next_sequence = database._op_sequence

    # recovery's last step: from here on operations are journaled again
    database._durability = DurabilityManager(
        data_dir, config=config, injector=injector, scan=scan
    )
    return database
