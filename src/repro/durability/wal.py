"""The write-ahead journal: segmented, checksummed, group-committed.

Records (:mod:`repro.durability.record`) are appended to segment files
``wal-00000000.seg``, ``wal-00000001.seg``, ... under ``<data_dir>/wal/``.
Each segment starts with a fixed header::

    magic "RPWL" | version u32 LE | base_sequence u64 LE

``base_sequence`` is the linearization sequence the segment starts at
(every record in it has ``sequence >= base_sequence``); recovery uses the
*earliest* surviving segment's base to prove the journal still covers
everything past a snapshot's high-water mark after truncation.

Sync modes (the group-commit knob):

``"always"``
    fsync after every append — a committed DML op survives an OS crash;
``"batch"``
    fsync every ``batch_size`` appends (and on rotation/close) — a crash
    loses at most the last unsynced group, never a committed prefix's
    integrity;
``"off"``
    never fsync — the OS flushes when it pleases; cheapest, weakest.

Files are opened unbuffered, so every append reaches the OS immediately
and the fault injector (:mod:`repro.durability.faults`) can tear a write
at an exact byte offset.

Scan policy (:meth:`WriteAheadLog.scan`): a frame that is *incomplete*
can only be the torn tail of the final segment — segments are append-only
and a crash kills the writer, so nothing is ever written after a torn
frame.  A torn tail is tolerated (the valid prefix is recovered and the
tail truncated on resume).  Everything else — a checksum mismatch on a
complete frame, a torn frame in a non-final segment, a sequence that does
not advance, a bad segment header — is corruption and raises
:class:`WalCorruptionError` with a precise diagnostic: recovery must fail
loudly rather than silently drop committed operations.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.durability.faults import (
    FaultInjector, fsync_directory, kill_point, open_durable,
)
from repro.durability.record import (
    RecordFormatError,
    WalRecord,
    decode_record,
    frame_record,
    scan_frames,
)

SEGMENT_MAGIC = b"RPWL"
SEGMENT_VERSION = 1
SEGMENT_HEADER = struct.Struct("<4sIQ")  # magic, version, base_sequence
SYNC_MODES = ("always", "batch", "off")

WAL_SUBDIR = "wal"


class WalCorruptionError(RuntimeError):
    """The journal is damaged in a way replay must not paper over."""


@dataclass(frozen=True)
class SegmentInfo:
    """One scanned segment file."""

    path: Path
    index: int
    base_sequence: int
    record_count: int
    last_sequence: Optional[int]  # None for an empty segment


@dataclass
class WalScan:
    """Everything recovery needs to know about the on-disk journal."""

    records: List[WalRecord] = field(default_factory=list)
    segments: List[SegmentInfo] = field(default_factory=list)
    #: byte offset just past the last valid frame of the final segment
    tail_offset: int = 0
    #: diagnostic of a tolerated torn tail (None = the log ended cleanly)
    torn_tail: Optional[str] = None

    @property
    def base_sequence(self) -> Optional[int]:
        """The earliest surviving segment's base (None = empty journal)."""
        return self.segments[0].base_sequence if self.segments else None

    @property
    def last_sequence(self) -> Optional[int]:
        return self.records[-1].sequence if self.records else None


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.seg"


def _segment_index(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith("wal-") and name.endswith(".seg")):
        return None
    digits = name[len("wal-"):-len(".seg")]
    return int(digits) if digits.isdigit() else None


def _list_segments(directory: Path) -> List[Path]:
    found = []
    if directory.is_dir():
        for path in directory.iterdir():
            index = _segment_index(path)
            if index is not None:
                found.append((index, path))
    return [path for _, path in sorted(found)]


def _read_segment_header(path: Path, data: bytes) -> int:
    """Validate a segment header, returning its base sequence."""
    if len(data) < SEGMENT_HEADER.size:
        raise WalCorruptionError(
            f"{path}: truncated segment header "
            f"({len(data)} of {SEGMENT_HEADER.size} bytes)"
        )
    magic, version, base_sequence = SEGMENT_HEADER.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        raise WalCorruptionError(f"{path}: bad segment magic {magic!r}")
    if version != SEGMENT_VERSION:
        raise WalCorruptionError(
            f"{path}: unsupported segment version {version}"
        )
    return base_sequence


class WriteAheadLog:
    """Appender over the segment files (one per database, single-writer).

    Thread-safe: :meth:`append`, :meth:`sync`, :meth:`truncate_through`
    and :meth:`close` serialize on one internal mutex.  The engine calls
    :meth:`append` while holding the affected table's write gate, which
    is what makes the journal order the linearization order.
    """

    def __init__(
        self,
        directory: Path,
        sync: str = "batch",
        batch_size: int = 32,
        segment_bytes: int = 4 << 20,
        injector: Optional[FaultInjector] = None,
        scan: Optional[WalScan] = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(
                f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.directory = Path(directory)
        self.sync_mode = sync
        self.batch_size = int(batch_size)
        self.segment_bytes = int(segment_bytes)
        self._injector = injector
        self._lock = threading.Lock()
        self._handle = None
        self._segment_index = 0
        self._segment_offset = 0
        self._unsynced_appends = 0
        self._last_sequence = -1
        # sealed (rotated-out) segment index -> its last record's sequence
        # (None = sealed empty); truncate_through decides coverage from
        # this metadata instead of re-reading and re-decoding segment
        # files while the caller holds every table gate
        self._sealed_last: Dict[int, Optional[int]] = {}
        # last sequence appended into the *active* segment (None = none
        # yet); becomes the sealed entry when the segment rotates out
        self._active_last: Optional[int] = None
        self._closed = False
        # cumulative introspection counters (read via stats())
        self._appended_records = 0
        self._fsync_calls = 0
        self._rotations = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        if scan is None:
            scan = WriteAheadLog.scan(self.directory)
        if scan.segments:
            self._resume(scan)
        else:
            self._open_segment(0, base_sequence=0)

    # -- scanning ----------------------------------------------------------

    @staticmethod
    def scan(directory: Path) -> WalScan:
        """Read every segment, returning the valid record prefix.

        Tolerates a torn final record in the final segment; raises
        :class:`WalCorruptionError` for every other defect.
        """
        directory = Path(directory)
        result = WalScan()
        paths = _list_segments(directory)
        previous_sequence = -1
        for position, path in enumerate(paths):
            data = path.read_bytes()
            base_sequence = _read_segment_header(path, data)
            payloads, valid_end, error = scan_frames(data, SEGMENT_HEADER.size)
            is_final = position == len(paths) - 1
            if error is not None:
                if error.frame_complete or not is_final:
                    where = "final" if is_final else "non-final"
                    raise WalCorruptionError(
                        f"{path} ({where} segment): {error.reason}; "
                        "refusing to replay past damaged journal data"
                    )
                result.torn_tail = f"{path}: {error.reason}"
            records = []
            for payload in payloads:
                try:
                    record = decode_record(payload)
                except RecordFormatError as exc:
                    raise WalCorruptionError(
                        f"{path}: undecodable record after valid checksum: "
                        f"{exc}"
                    ) from exc
                if record.sequence <= previous_sequence:
                    raise WalCorruptionError(
                        f"{path}: sequence regressed "
                        f"({record.sequence} after {previous_sequence})"
                    )
                previous_sequence = record.sequence
                records.append(record)
            if records and records[0].sequence < base_sequence:
                raise WalCorruptionError(
                    f"{path}: first record sequence {records[0].sequence} "
                    f"below segment base {base_sequence}"
                )
            result.records.extend(records)
            result.segments.append(
                SegmentInfo(
                    path=path,
                    index=_segment_index(path),
                    base_sequence=base_sequence,
                    record_count=len(records),
                    last_sequence=records[-1].sequence if records else None,
                )
            )
            if is_final:
                result.tail_offset = valid_end
        return result

    # -- segment lifecycle -------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.directory / _segment_name(index)

    def _open_segment(self, index: int, base_sequence: int) -> None:
        path = self._segment_path(index)
        handle = open_durable(path, "wb", self._injector)
        header = SEGMENT_HEADER.pack(
            SEGMENT_MAGIC, SEGMENT_VERSION, base_sequence
        )
        handle.write(header)
        handle.fsync()  # the header must survive before records rely on it
        fsync_directory(self.directory)
        self._handle = handle
        self._segment_index = index
        self._segment_offset = len(header)
        self._unsynced_appends = 0
        self._active_last = None

    def _resume(self, scan: WalScan) -> None:
        """Reopen the journal after a scan: truncate the torn tail (if
        any) and append to the final segment from its last valid byte."""
        final = scan.segments[-1]
        for info in scan.segments[:-1]:
            self._sealed_last[info.index] = info.last_sequence
        with open(final.path, "r+b") as handle:
            handle.truncate(scan.tail_offset)
        self._handle = open_durable(final.path, "ab", self._injector)
        self._segment_index = final.index
        self._segment_offset = scan.tail_offset
        self._active_last = final.last_sequence
        if scan.last_sequence is not None:
            self._last_sequence = scan.last_sequence

    def _rotate_locked(self, base_sequence: int) -> None:
        # the outgoing segment becomes immutable: make it durable now so
        # later truncation decisions can trust its contents
        self._handle.fsync()
        self._fsync_calls += 1
        self._handle.close()
        self._rotations += 1
        self._sealed_last[self._segment_index] = self._active_last
        self._open_segment(self._segment_index + 1, base_sequence)
        kill_point(self._injector, "wal.after_rotate")

    # -- the appender ------------------------------------------------------

    def append(self, record: WalRecord) -> None:
        """Append one record; durable per the sync mode before returning."""
        frame = frame_record(record)
        with self._lock:
            self._check_open()
            kill_point(self._injector, "wal.before_append")
            self._handle.write(frame)
            self._segment_offset += len(frame)
            self._appended_records += 1
            self._last_sequence = record.sequence
            self._active_last = record.sequence
            if self.sync_mode == "always":
                kill_point(self._injector, "wal.before_fsync")
                self._handle.fsync()
                self._fsync_calls += 1
            elif self.sync_mode == "batch":
                self._unsynced_appends += 1
                if self._unsynced_appends >= self.batch_size:
                    kill_point(self._injector, "wal.before_fsync")
                    self._handle.fsync()
                    self._fsync_calls += 1
                    self._unsynced_appends = 0
            if self._segment_offset >= self.segment_bytes:
                self._rotate_locked(base_sequence=record.sequence + 1)

    def sync(self) -> None:
        """Force an fsync of the active segment (any sync mode)."""
        with self._lock:
            self._check_open()
            self._handle.fsync()
            self._fsync_calls += 1
            self._unsynced_appends = 0

    def truncate_through(self, sequence: int) -> int:
        """Drop segments fully covered by a snapshot at ``sequence``.

        Rotates first so the active segment is always retained, then
        unlinks every sealed segment whose records all have
        ``sequence <= sequence``.  Coverage is decided from the in-memory
        per-segment metadata maintained by the scan/rotation path — the
        caller (``Database.snapshot``) holds every table gate, so this
        must never pay an O(journal bytes) re-decode of retained segments.
        Returns the number of segments removed.
        """
        removed = 0
        with self._lock:
            self._check_open()
            self._rotate_locked(base_sequence=self._last_sequence + 1)
            for index, last in sorted(self._sealed_last.items()):
                if last is not None and last > sequence:
                    continue
                kill_point(self._injector, "wal.truncate.before_unlink")
                self._segment_path(index).unlink()
                del self._sealed_last[index]
                removed += 1
            if removed:
                fsync_directory(self.directory)
        return removed

    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handle, self._handle = self._handle, None
            if handle is not None and not handle.closed:
                try:
                    handle.fsync()
                    self._fsync_calls += 1
                finally:
                    handle.close()

    def _check_open(self) -> None:
        if self._closed or self._handle is None:
            raise RuntimeError("write-ahead log is closed")

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "appended_records": self._appended_records,
                "fsync_calls": self._fsync_calls,
                "rotations": self._rotations,
                "active_segment": self._segment_index,
                "active_segment_bytes": self._segment_offset,
            }
