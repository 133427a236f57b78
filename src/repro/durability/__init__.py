"""Durability: write-ahead journal, snapshots, crash recovery, faults.

The engine stays purely in-memory by default; passing ``data_dir`` to
:class:`~repro.engine.database.Database` (or opening one with
``Database.open``) attaches this subsystem — every DML and schema
operation is journaled in linearization order *before* its commit
releases the table gate, snapshots bound replay time, one process owns a
data directory at a time (a lock file with a pid stamp), and recovery
rebuilds bit-identical state by replaying the journal tail in runs through
the session's bulk DML body, into columns already sized for it.  See
``docs/DURABILITY.md``.
"""

from repro.durability.faults import FaultInjector, FaultyFile, KilledByFault
from repro.durability.lock import DataDirectoryLocked
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    has_durable_state,
)
from repro.durability.record import ColumnDump, WalRecord
from repro.durability.recovery import RecoveryError, RecoveryReport, recover
from repro.durability.snapshot import (
    SnapshotCorruptionError,
    SnapshotState,
    SnapshotStore,
)
from repro.durability.wal import WalCorruptionError, WriteAheadLog

__all__ = [
    "ColumnDump",
    "DataDirectoryLocked",
    "DurabilityConfig",
    "DurabilityManager",
    "FaultInjector",
    "FaultyFile",
    "KilledByFault",
    "RecoveryError",
    "RecoveryReport",
    "SnapshotCorruptionError",
    "SnapshotState",
    "SnapshotStore",
    "WalCorruptionError",
    "WalRecord",
    "WriteAheadLog",
    "has_durable_state",
    "recover",
]
