"""Crash recovery: latest valid snapshot + journal tail replay.

:func:`recover` (the engine calls it through ``Database.open``) rebuilds a
database from a data directory:

1. pick the newest snapshot that validates (checksums, structure); a
   corrupt newer snapshot is skipped *only* when the surviving journal
   still covers everything past the older snapshot's high-water mark —
   otherwise recovery fails loudly with the corruption diagnostic;
2. scan the journal (:meth:`WriteAheadLog.scan`): a torn final record is
   tolerated and truncated, any other damage raises;
3. apply the snapshot (tables around the arrays its column sections were
   read into, with no copy; tombstones, then
   ``set_indexing`` per recorded mode — adaptive structures are derived
   state and rebuild from the base columns, re-absorbing the tombstones);
4. replay every journal record past the high-water mark **through the
   ordinary session path**, asserting that each insert/update lands on
   the rowid the original execution recorded — the recovered state is the
   sequential oracle's state, not a lookalike;
5. resume the linearization counter past everything replayed and attach a
   live :class:`DurabilityManager` so the database journals again.

The invariant the fault suite pins: for *any* crash point, recovery
either reproduces the state of a surviving-journal-prefix replay
bit-for-bit, or raises :class:`RecoveryError` with a diagnostic naming
the damaged file and byte — never a silently wrong database.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.columnstore.column import Column
from repro.core.strategies import accepted_options
from repro.durability.faults import FaultInjector
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
#: without the retired refinement (sorted small pieces, radix clusters)
_RETIRED_MODES = {
    "cracking-sort-pieces": "cracking",
    "hybrid-crack-radix": "hybrid-crack-crack",
    "hybrid-radix-radix": "hybrid-crack-crack",
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


def _choose_snapshot(
    store: SnapshotStore, report: RecoveryReport
) -> Optional[SnapshotState]:
    """Newest snapshot that validates; records skipped ones' diagnostics."""
    for path in reversed(store.paths()):
        try:
            state = store.load(path)
        except SnapshotCorruptionError as exc:
            report.skipped_snapshots.append(str(exc))
            continue
        report.snapshot_path = str(path)
        report.snapshot_high_water = state.high_water
        return state
    return None


def _apply_snapshot(database: "Database", state: SnapshotState) -> None:
    """Install a snapshot's tables, tombstones and indexing modes."""
    for table_state in state.tables:
        table = database.create_table(
            table_state.name,
            {
                dump.name: Column.adopt(dump.values, dump.name, dump.dtype)
                for dump in table_state.columns
            },
        )
        # nothing else can see the table yet: no gate is needed
        table.delete_many(table_state.deleted_rows)
    # modes go in after tombstones: updatable strategies re-absorb the
    # pending deletes inside set_indexing, exactly like a live mode switch
    for mode_state in state.modes:
        mode, options = _current_mode(mode_state.mode, mode_state.options)
        database.set_indexing(mode_state.table, mode_state.column, mode, **options)


def _replay_records(
    database: "Database",
    records: List[WalRecord],
    high_water: int,
    report: RecoveryReport,
) -> int:
    """Replay journal records past ``high_water`` through a real session;
    returns the last sequence seen."""
    last_sequence = high_water
    counts = report.replayed_operations
    with database.session(name="recovery") as session:
        for record in records:
            if record.sequence <= high_water:
                continue
            last_sequence = record.sequence
            kind = record.kind
            if kind == "insert":
                rowid = session.insert_row(record.table, record.values)
                if rowid != record.rowid:
                    raise RecoveryError(
                        f"replay diverged at sequence {record.sequence}: "
                        f"insert into {record.table!r} landed on rowid "
                        f"{rowid}, journal recorded {record.rowid}"
                    )
            elif kind == "delete":
                session.delete_row(record.table, record.rowid)
            elif kind == "update":
                rowid = session.update_row(
                    record.table, record.old_rowid, record.values
                )
                if rowid != record.rowid:
                    raise RecoveryError(
                        f"replay diverged at sequence {record.sequence}: "
                        f"update of {record.table!r} rowid {record.old_rowid} "
                        f"landed on rowid {rowid}, journal recorded "
                        f"{record.rowid}"
                    )
            elif kind == "create_table":
                database.create_table(
                    record.table,
                    {
                        dump.name: Column.adopt(dump.values, dump.name, dump.dtype)
                        for dump in record.columns
                    },
                )
            elif kind == "drop_table":
                database.drop_table(record.table)
            else:  # set_indexing (WalRecord rejects unknown kinds on decode)
                mode, options = _current_mode(record.mode, record.options)
                database.set_indexing(record.table, record.column, mode, **options)
            counts[kind] = counts.get(kind, 0) + 1
    return last_sequence


def recover(
    data_dir: Path,
    name: Optional[str] = None,
    config: Optional[DurabilityConfig] = None,
    injector: Optional[FaultInjector] = None,
) -> Tuple["Database", RecoveryReport]:
    """Rebuild a :class:`Database` from ``data_dir`` (see module docs)."""
    # imported here, not at module top: the engine imports durability
    # submodules, so a top-level import would be circular
    from repro.engine.database import Database

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

    snapshot = _choose_snapshot(
        SnapshotStore(snapshot_directory(data_dir)), report
    )
    high_water = snapshot.high_water if snapshot is not None else -1

    try:
        scan = WriteAheadLog.scan(wal_directory(data_dir))
    except WalCorruptionError as exc:
        raise RecoveryError(str(exc)) from exc
    report.wal_records = len(scan.records)
    report.torn_tail = scan.torn_tail

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

    report.elapsed_seconds = time.perf_counter() - started
    database.recovery_report = report
    return database, report
