"""Wire format of the write-ahead journal: framed, checksummed records.

One :class:`WalRecord` serializes one linearized engine operation (the
durable subset of :class:`~repro.engine.session.OperationRecord`: DML and
schema changes — queries refine indexes but never change logical state, so
they are not journaled).  Records are written as self-delimiting frames::

    +----------------+----------------+========================+
    | length  u32 LE | crc32   u32 LE | payload (length bytes) |
    +----------------+----------------+========================+

The checksum covers the payload only, so a torn header, a torn payload and
a corrupted payload are three distinguishable failure modes
(:class:`FrameError` reports which one, at which byte offset, and whether
the frame's bytes were all present).  :func:`scan_frames` decodes a byte
buffer into the longest valid prefix of frames plus the first error, if
any — the recovery policy built on top (torn tail tolerated, mid-log
corruption fatal) lives in :mod:`repro.durability.wal`.

Payload layout (all little-endian)::

    kind      u8                    (see RECORD_KINDS)
    sequence  u64                   linearization sequence number
    table     u16 length + utf-8
    ...       kind-specific fields

Inserts and updates carry the rowid the original execution assigned, so
replay can *verify* (not just hope) that the recovered database makes the
same decision.  ``create_table`` carries the full initial column arrays —
a table born from data must be reconstructible from the journal alone when
no snapshot covers it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.columnstore.types import DataType, dtype_by_name
from repro.durability import checksum

FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: durable operation kinds -> wire tag
RECORD_KINDS: Dict[str, int] = {
    "insert": 1,
    "delete": 2,
    "update": 3,
    "create_table": 4,
    "drop_table": 5,
    "set_indexing": 6,
}
_KIND_BY_TAG = {tag: kind for kind, tag in RECORD_KINDS.items()}

_VALUE_INT = 0  # encoded <q
_VALUE_FLOAT = 1  # encoded <d

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class RecordFormatError(ValueError):
    """A payload that cannot be decoded (unknown kind, bad structure)."""


@dataclass(frozen=True)
class ColumnDump:
    """One column's data inside a ``create_table`` record."""

    name: str
    dtype: DataType
    values: np.ndarray

    def __eq__(self, other) -> bool:  # arrays need elementwise comparison
        return (
            isinstance(other, ColumnDump)
            and self.name == other.name
            and self.dtype.name == other.dtype.name
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class WalRecord:
    """One durable engine operation in linearization order."""

    sequence: int
    kind: str  # a key of RECORD_KINDS
    table: str
    #: insert/delete: the affected rowid; update: the *new* rowid
    rowid: Optional[int] = None
    #: update: the rowid being replaced
    old_rowid: Optional[int] = None
    #: insert: full row; update: the changed columns
    values: Optional[Dict[str, Union[int, float]]] = None
    #: set_indexing target column / mode / options
    column: Optional[str] = None
    mode: Optional[str] = None
    options: Optional[Dict] = None
    #: create_table initial data
    columns: Tuple[ColumnDump, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise RecordFormatError(f"unknown record kind {self.kind!r}")


@dataclass(frozen=True)
class FrameError:
    """The first undecodable frame met while scanning a buffer."""

    offset: int  # byte offset of the frame's header
    reason: str  # human-readable diagnostic
    #: True when every byte of the frame was present (checksum/decode
    #: failure on complete data — corruption, not a torn write)
    frame_complete: bool


# -- primitive encoders ------------------------------------------------------


def _put_str(parts: List[bytes], text: str) -> None:
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise RecordFormatError(f"string too long for wire format: {len(encoded)}")
    parts.append(_U16.pack(len(encoded)))
    parts.append(encoded)


def _get_str(buffer: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _U16.unpack_from(buffer, offset)
    offset += _U16.size
    end = offset + length
    if end > len(buffer):
        raise RecordFormatError("string field overruns payload")
    return str(buffer[offset:end], "utf-8"), end


def _put_values(parts: List[bytes], values: Mapping[str, Union[int, float]]) -> None:
    parts.append(_U16.pack(len(values)))
    for name, value in values.items():
        _put_str(parts, name)
        if isinstance(value, (bool, int, np.integer)):
            parts.append(_U8.pack(_VALUE_INT))
            parts.append(_I64.pack(int(value)))
        else:
            parts.append(_U8.pack(_VALUE_FLOAT))
            parts.append(_F64.pack(value))


def _get_values(buffer: bytes, offset: int) -> Tuple[Dict[str, Union[int, float]], int]:
    (count,) = _U16.unpack_from(buffer, offset)
    offset += _U16.size
    values: Dict[str, Union[int, float]] = {}
    for _ in range(count):
        name, offset = _get_str(buffer, offset)
        (tag,) = _U8.unpack_from(buffer, offset)
        offset += _U8.size
        if tag == _VALUE_INT:
            (values[name],) = _I64.unpack_from(buffer, offset)
            offset += _I64.size
        elif tag == _VALUE_FLOAT:
            (values[name],) = _F64.unpack_from(buffer, offset)
            offset += _F64.size
        else:
            raise RecordFormatError(f"unknown value tag {tag}")
    return values, offset


# -- record <-> payload ------------------------------------------------------


def encode_record(record: WalRecord) -> bytes:
    """Serialize one record to its payload bytes (no frame header)."""
    parts: List[bytes] = [
        _U8.pack(RECORD_KINDS[record.kind]),
        _U64.pack(record.sequence),
    ]
    _put_str(parts, record.table)
    kind = record.kind
    if kind == "insert":
        parts.append(_U64.pack(record.rowid))
        _put_values(parts, record.values or {})
    elif kind == "delete":
        parts.append(_U64.pack(record.rowid))
    elif kind == "update":
        parts.append(_U64.pack(record.old_rowid))
        parts.append(_U64.pack(record.rowid))
        _put_values(parts, record.values or {})
    elif kind == "create_table":
        parts.append(_U16.pack(len(record.columns)))
        for dump in record.columns:
            _put_str(parts, dump.name)
            _put_str(parts, dump.dtype.name)
            raw = np.ascontiguousarray(dump.values).tobytes()
            parts.append(_U64.pack(len(dump.values)))
            parts.append(_U32.pack(len(raw)))
            parts.append(raw)
    elif kind == "set_indexing":
        _put_str(parts, record.column)
        _put_str(parts, record.mode)
        encoded_options = json.dumps(
            record.options or {}, sort_keys=True
        ).encode("utf-8")
        parts.append(_U32.pack(len(encoded_options)))
        parts.append(encoded_options)
    # drop_table carries no extra fields
    return b"".join(parts)


def decode_record(payload: bytes) -> WalRecord:
    """Decode one payload back into a :class:`WalRecord`."""
    try:
        (tag,) = _U8.unpack_from(payload, 0)
        kind = _KIND_BY_TAG.get(tag)
        if kind is None:
            raise RecordFormatError(f"unknown record kind tag {tag}")
        (sequence,) = _U64.unpack_from(payload, _U8.size)
        offset = _U8.size + _U64.size
        table, offset = _get_str(payload, offset)
        if kind == "insert":
            (rowid,) = _U64.unpack_from(payload, offset)
            offset += _U64.size
            values, offset = _get_values(payload, offset)
            return WalRecord(sequence, kind, table, rowid=rowid, values=values)
        if kind == "delete":
            (rowid,) = _U64.unpack_from(payload, offset)
            return WalRecord(sequence, kind, table, rowid=rowid)
        if kind == "update":
            (old_rowid,) = _U64.unpack_from(payload, offset)
            offset += _U64.size
            (rowid,) = _U64.unpack_from(payload, offset)
            offset += _U64.size
            values, offset = _get_values(payload, offset)
            return WalRecord(
                sequence, kind, table,
                rowid=rowid, old_rowid=old_rowid, values=values,
            )
        if kind == "create_table":
            (count,) = _U16.unpack_from(payload, offset)
            offset += _U16.size
            dumps: List[ColumnDump] = []
            for _ in range(count):
                name, offset = _get_str(payload, offset)
                dtype_name, offset = _get_str(payload, offset)
                dtype = dtype_by_name(dtype_name)
                (rows,) = _U64.unpack_from(payload, offset)
                offset += _U64.size
                (nbytes,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                end = offset + nbytes
                if end > len(payload):
                    raise RecordFormatError("column section overruns payload")
                itemsize = dtype.numpy_dtype.itemsize
                if rows * itemsize != nbytes:
                    # a declared row count larger than the section would
                    # otherwise silently consume bytes of the next column
                    raise RecordFormatError(
                        f"column section length mismatch: {rows} rows of "
                        f"{itemsize}-byte {dtype.name} need "
                        f"{rows * itemsize} bytes, section holds {nbytes}"
                    )
                # a read-only view of the payload, no copy: recovery makes
                # the one copy, into the column sized for the journal tail
                dumps.append(ColumnDump(name, dtype, np.frombuffer(
                    payload, dtype=dtype.numpy_dtype, count=rows, offset=offset
                )))
                offset = end
            return WalRecord(sequence, kind, table, columns=tuple(dumps))
        if kind == "drop_table":
            return WalRecord(sequence, kind, table)
        # set_indexing
        column, offset = _get_str(payload, offset)
        mode, offset = _get_str(payload, offset)
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        end = offset + length
        if end > len(payload):
            raise RecordFormatError("options section overruns payload")
        options = json.loads(str(payload[offset:end], "utf-8"))
        return WalRecord(
            sequence, kind, table, column=column, mode=mode, options=options
        )
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        if isinstance(exc, RecordFormatError):
            raise
        raise RecordFormatError(f"malformed payload: {exc}") from exc


# -- framing -----------------------------------------------------------------


def frame_record(record: WalRecord) -> bytes:
    """Serialize one record as a self-delimiting checksummed frame."""
    payload = encode_record(record)
    return FRAME_HEADER.pack(len(payload), checksum.crc32(payload)) + payload


def iter_frames(
    buffer: bytes, start: int = 0
) -> Iterator[Tuple[int, Union[memoryview, FrameError]]]:
    """Yield ``(offset, payload | FrameError)`` for each frame in ``buffer``.

    A payload is a read-only view of ``buffer``, not a copy: a scan holds
    the journal once, and a decoded ``create_table`` column is a view of
    it too.

    Iteration stops after the first :class:`FrameError`; the offset of a
    yielded error is where a subsequent valid frame *would* resume if the
    broken frame's length header can be trusted (only meaningful when
    ``frame_complete`` is True).
    """
    view = memoryview(buffer).toreadonly()
    offset = start
    size = len(buffer)
    while offset < size:
        if offset + FRAME_HEADER.size > size:
            yield offset, FrameError(
                offset,
                f"torn frame header at byte {offset}: "
                f"{size - offset} of {FRAME_HEADER.size} header bytes present",
                frame_complete=False,
            )
            return
        length, expected = FRAME_HEADER.unpack_from(buffer, offset)
        body_start = offset + FRAME_HEADER.size
        body_end = body_start + length
        if body_end > size:
            yield offset, FrameError(
                offset,
                f"torn frame payload at byte {offset}: "
                f"{size - body_start} of {length} payload bytes present",
                frame_complete=False,
            )
            return
        payload = view[body_start:body_end]
        if checksum.crc32(payload) != expected:
            yield offset, FrameError(
                offset,
                f"checksum mismatch in frame at byte {offset} "
                f"({length}-byte payload)",
                frame_complete=True,
            )
            return
        yield offset, payload
        offset = body_end


def scan_frames(buffer: bytes, start: int = 0):
    """Split ``buffer`` into valid frame payloads plus the first error.

    Returns ``(payloads, valid_end, error)`` where ``payloads`` is the
    longest decodable prefix, ``valid_end`` is the byte offset just past
    the last valid frame, and ``error`` is ``None`` or the
    :class:`FrameError` that stopped the scan.
    """
    payloads: List[memoryview] = []
    valid_end = start
    error: Optional[FrameError] = None
    for offset, item in iter_frames(buffer, start):
        if isinstance(item, FrameError):
            error = item
            break
        payloads.append(item)
        valid_end = offset + FRAME_HEADER.size + len(item)
    return payloads, valid_end, error
