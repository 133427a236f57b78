"""Column-store snapshots: atomic, checksummed full-state dumps.

A snapshot captures everything the journal replay would otherwise rebuild
from the beginning of time: every table's column arrays, its tombstones
(the positions of its deleted rows — updatable access paths re-absorb
them on load as pending deletes), the configured indexing modes, and the
journal high-water sequence the dump is consistent with.  Adaptive access-path *internals*
(crack maps, partial sort state, sideways maps) are deliberately not
dumped: they are derived, rebuildable state — recovery re-installs each
mode with ``set_indexing`` and lets the indexes refine again from query
traffic, which is the adaptive-indexing contract.

File layout (``snapshots/snapshot-<high_water:020d>.snap``)::

    magic "RPSN" | version u32 LE
    manifest_length u32 LE | manifest_crc32 u32 LE | manifest (JSON)
    column sections, raw little-endian array bytes, in manifest order

The manifest records each section's byte length and crc32, so any damage
is pinpointed to a named table/column.  Writes are atomic: the dump goes
to a ``*.tmp`` sibling, is fsynced, and only then renamed over the final
name (``os.replace``) with a directory fsync — a crash leaves either the
old snapshot set or the new one, never a half-written file under a valid
name.  Stray ``*.tmp`` files are ignored (and cleaned) by the store.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columnstore.types import dtype_by_name
from repro.durability.faults import (
    FaultInjector, fsync_directory, kill_point, open_durable,
)
from repro.durability.record import ColumnDump

SNAPSHOT_MAGIC = b"RPSN"
SNAPSHOT_VERSION = 1
SNAPSHOT_HEADER = struct.Struct("<4sI")
MANIFEST_HEADER = struct.Struct("<II")  # manifest length, crc32

SNAPSHOT_SUBDIR = "snapshots"


class SnapshotCorruptionError(RuntimeError):
    """A snapshot file that fails validation (never loaded silently)."""


@dataclass(frozen=True)
class IndexModeState:
    """One configured indexing mode, re-installed on load."""

    table: str
    column: str
    mode: str
    options: Dict


@dataclass(frozen=True)
class TableState:
    """One table's logical state: columns plus tombstoned positions."""

    name: str
    columns: Tuple[ColumnDump, ...]
    deleted_rows: Tuple[int, ...]


@dataclass(frozen=True)
class SnapshotState:
    """The full dump a snapshot file stores."""

    name: str  # database name
    high_water: int  # every op with sequence <= this is included
    op_sequence: int  # the linearization counter to resume from
    tables: Tuple[TableState, ...] = field(default=())
    modes: Tuple[IndexModeState, ...] = field(default=())


def _snapshot_name(high_water: int) -> str:
    return f"snapshot-{high_water:020d}.snap"


def _snapshot_high_water(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith("snapshot-") and name.endswith(".snap")):
        return None
    digits = name[len("snapshot-"):-len(".snap")]
    return int(digits) if digits.isdigit() else None


def encode_snapshot(state: SnapshotState) -> bytes:
    """Serialize a snapshot to its full file bytes."""
    sections: List[bytes] = []
    tables_manifest = []
    for table in state.tables:
        columns_manifest = []
        for dump in table.columns:
            raw = np.ascontiguousarray(dump.values).tobytes()
            sections.append(raw)
            columns_manifest.append(
                {
                    "name": dump.name,
                    "dtype": dump.dtype.name,
                    "rows": int(len(dump.values)),
                    "nbytes": len(raw),
                    "crc": zlib.crc32(raw),
                }
            )
        tables_manifest.append(
            {
                "name": table.name,
                "columns": columns_manifest,
                "deleted_rows": sorted(int(r) for r in table.deleted_rows),
            }
        )
    manifest = {
        "name": state.name,
        "high_water": int(state.high_water),
        "op_sequence": int(state.op_sequence),
        "tables": tables_manifest,
        "modes": [
            {
                "table": mode.table,
                "column": mode.column,
                "mode": mode.mode,
                "options": mode.options,
            }
            for mode in state.modes
        ],
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    parts = [
        SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
        MANIFEST_HEADER.pack(len(manifest_bytes), zlib.crc32(manifest_bytes)),
        manifest_bytes,
    ]
    parts.extend(sections)
    return b"".join(parts)


def decode_snapshot(data: bytes, source: str = "<snapshot>") -> SnapshotState:
    """Validate and decode snapshot file bytes."""
    if len(data) < SNAPSHOT_HEADER.size + MANIFEST_HEADER.size:
        raise SnapshotCorruptionError(
            f"{source}: truncated snapshot header ({len(data)} bytes)"
        )
    magic, version = SNAPSHOT_HEADER.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotCorruptionError(f"{source}: bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptionError(
            f"{source}: unsupported snapshot version {version}"
        )
    manifest_length, manifest_crc = MANIFEST_HEADER.unpack_from(
        data, SNAPSHOT_HEADER.size
    )
    manifest_start = SNAPSHOT_HEADER.size + MANIFEST_HEADER.size
    manifest_end = manifest_start + manifest_length
    if manifest_end > len(data):
        raise SnapshotCorruptionError(
            f"{source}: truncated manifest "
            f"({len(data) - manifest_start} of {manifest_length} bytes)"
        )
    manifest_bytes = data[manifest_start:manifest_end]
    if zlib.crc32(manifest_bytes) != manifest_crc:
        raise SnapshotCorruptionError(f"{source}: manifest checksum mismatch")
    manifest = json.loads(manifest_bytes.decode("utf-8"))

    offset = manifest_end
    tables: List[TableState] = []
    for table_entry in manifest["tables"]:
        dumps: List[ColumnDump] = []
        for column_entry in table_entry["columns"]:
            nbytes = int(column_entry["nbytes"])
            end = offset + nbytes
            section_name = f"{table_entry['name']}.{column_entry['name']}"
            if end > len(data):
                raise SnapshotCorruptionError(
                    f"{source}: truncated column section {section_name} "
                    f"({len(data) - offset} of {nbytes} bytes)"
                )
            raw = data[offset:end]
            if zlib.crc32(raw) != int(column_entry["crc"]):
                raise SnapshotCorruptionError(
                    f"{source}: checksum mismatch in column section "
                    f"{section_name} at byte {offset}"
                )
            dtype = dtype_by_name(column_entry["dtype"])
            values = np.frombuffer(
                raw, dtype=dtype.numpy_dtype, count=int(column_entry["rows"])
            )
            dumps.append(ColumnDump(column_entry["name"], dtype, values.copy()))
            offset = end
        tables.append(
            TableState(
                name=table_entry["name"],
                columns=tuple(dumps),
                deleted_rows=tuple(table_entry["deleted_rows"]),
            )
        )
    if offset != len(data):
        raise SnapshotCorruptionError(
            f"{source}: {len(data) - offset} trailing bytes after the last "
            "column section"
        )
    modes = tuple(
        IndexModeState(
            table=entry["table"],
            column=entry["column"],
            mode=entry["mode"],
            options=dict(entry["options"]),
        )
        for entry in manifest["modes"]
    )
    return SnapshotState(
        name=manifest["name"],
        high_water=int(manifest["high_water"]),
        op_sequence=int(manifest["op_sequence"]),
        tables=tuple(tables),
        modes=modes,
    )


class SnapshotStore:
    """Owns the ``snapshots/`` directory: atomic writes, pruning, listing."""

    def __init__(
        self,
        directory: Path,
        keep: int = 2,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = int(keep)
        self._injector = injector
        self.directory.mkdir(parents=True, exist_ok=True)

    def paths(self) -> List[Path]:
        """Snapshot files, oldest first (by embedded high-water mark)."""
        found = []
        for path in self.directory.iterdir():
            high_water = _snapshot_high_water(path)
            if high_water is not None:
                found.append((high_water, path))
        return [path for _, path in sorted(found)]

    def write(self, state: SnapshotState) -> Path:
        """Atomically persist ``state``; returns the final path.

        The crash contract: until ``os.replace`` completes, the previous
        snapshot set is intact; after it, the new snapshot is fully
        present and fsynced.  There is no in-between under a valid name.
        """
        final_path = self.directory / _snapshot_name(state.high_water)
        tmp_path = final_path.with_suffix(".snap.tmp")
        data = encode_snapshot(state)
        kill_point(self._injector, "snapshot.before_write")
        with open_durable(tmp_path, "wb", self._injector) as handle:
            handle.write(data)
            kill_point(self._injector, "snapshot.before_sync")
            handle.fsync()
        kill_point(self._injector, "snapshot.before_rename")
        os.replace(tmp_path, final_path)
        fsync_directory(self.directory)
        kill_point(self._injector, "snapshot.after_rename")
        self._prune()
        return final_path

    def load(self, path: Path) -> SnapshotState:
        """Load and fully validate one snapshot file."""
        return decode_snapshot(Path(path).read_bytes(), source=str(path))

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` snapshots plus stray tmp files."""
        paths = self.paths()
        for stale in paths[: -self.keep]:
            stale.unlink()
        for leftover in self.directory.glob("*.tmp"):
            leftover.unlink()
        if len(paths) > self.keep:
            fsync_directory(self.directory)
