"""The durability manager: one object the engine talks to.

A :class:`DurabilityManager` owns a data directory's write-ahead log and
snapshot store.  The engine's contract with it is small:

* :meth:`append_record` — called by sessions *inside* the table's write
  gate, after the operation mutated the store and was stamped with its
  linearization sequence, *before* the gate is released.  That ordering
  is the whole WAL guarantee: once any other operation can observe the
  change, the journal already has it (to the configured sync level).
* :meth:`write_snapshot` — persists a state dump, then truncates the
  journal through its high-water mark and prunes old snapshots.  Only
  ``Database.snapshot`` calls it: a snapshot is taken when asked, never
  by a DML that crossed a threshold.

Layout under ``data_dir``::

    LOCK                            the owning process's pid (lock.py)
    wal/wal-00000000.seg ...        the journal segments
    snapshots/snapshot-....snap     full-state dumps
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.durability.faults import FaultInjector
from repro.durability.lock import DirectoryLock
from repro.durability.record import WalRecord
from repro.durability.snapshot import (
    SNAPSHOT_SUBDIR,
    SnapshotState,
    SnapshotStore,
)
from repro.durability.wal import WAL_SUBDIR, WalScan, WriteAheadLog


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs for the journal."""

    #: fsync policy: "always" | "batch" | "off" (see wal.py)
    sync: str = "batch"
    #: appends per group commit under sync="batch"
    batch_size: int = 32
    #: rotate the journal segment once it exceeds this many bytes
    segment_bytes: int = 4 << 20


def wal_directory(data_dir: Path) -> Path:
    return Path(data_dir) / WAL_SUBDIR


def snapshot_directory(data_dir: Path) -> Path:
    return Path(data_dir) / SNAPSHOT_SUBDIR


def has_durable_state(data_dir: Path) -> bool:
    """True when ``data_dir`` already holds journal segments or snapshots."""
    data_dir = Path(data_dir)
    wal_dir = wal_directory(data_dir)
    snap_dir = snapshot_directory(data_dir)
    return any(wal_dir.glob("wal-*.seg")) or any(
        snap_dir.glob("snapshot-*.snap")
    )


class DurabilityManager:
    """Journal + snapshot store for one database's data directory."""

    def __init__(
        self,
        data_dir: Path,
        config: Optional[DurabilityConfig] = None,
        injector: Optional[FaultInjector] = None,
        scan: Optional[WalScan] = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.config = config or DurabilityConfig()
        self.data_dir.mkdir(parents=True, exist_ok=True)
        # before the journal opens a segment: another process's database
        # over this directory is refused here
        self.directory_lock = DirectoryLock(self.data_dir)
        self.wal = WriteAheadLog(
            wal_directory(self.data_dir),
            sync=self.config.sync,
            batch_size=self.config.batch_size,
            segment_bytes=self.config.segment_bytes,
            injector=injector,
            scan=scan,
        )
        self.snapshots = SnapshotStore(
            snapshot_directory(self.data_dir), injector=injector
        )
        # only write_snapshot writes it, under Database.snapshot's schema
        # lock, so it needs no lock of its own
        self._snapshots_written = 0

    # -- the engine-facing hooks ------------------------------------------

    def append_record(self, record: WalRecord) -> None:
        """Journal one operation (the caller holds the table write gate)."""
        self.wal.append(record)

    def write_snapshot(self, state: SnapshotState) -> Path:
        """Persist ``state``, truncate the journal, prune old snapshots."""
        path = self.snapshots.write(state)
        self.wal.truncate_through(state.high_water)
        self._snapshots_written += 1
        return path

    # -- lifecycle ---------------------------------------------------------

    def sync(self) -> None:
        """Force the journal to disk (flushes a pending group commit)."""
        self.wal.sync()

    def close(self) -> None:
        self.wal.close()
        self.directory_lock.release()

    def stats(self) -> Dict[str, int]:
        report = self.wal.stats()
        report["snapshots_written"] = self._snapshots_written
        return report
