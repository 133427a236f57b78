"""The two-share snapshot load against the front-to-back one it replaced.

``decode_snapshot`` cuts the sections into pieces and reads and checksums
them on two threads, one from each end.  ``sequential_decode`` below is the
decoder as it was before that: one section after the other, each read with
``readinto`` and checksummed whole.  With the threshold patched down to one
byte and the pieces to a few bytes, every layout is split, and the two
decoders must return the same state or raise the same text, on a real file
and on bytes alike.
"""

import io
import json
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.columnstore.types import SUPPORTED_TYPES, dtype_by_name
from repro.durability import checksum, snapshot
from repro.durability.record import (
    ColumnDump, FRAME_HEADER, WalRecord, frame_record, scan_frames,
)
from repro.durability.snapshot import (
    MANIFEST_HEADER,
    SNAPSHOT_HEADER,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    IndexModeState,
    SnapshotCorruptionError,
    SnapshotState,
    SnapshotStore,
    TableState,
    decode_snapshot,
    encode_snapshot,
)


def sequential_decode(data, source="<snapshot>", spare=None):
    """The reference: the load as one front-to-back pass over the file."""
    spare = spare or {}
    stream = io.BytesIO(data)
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    if size < SNAPSHOT_HEADER.size + MANIFEST_HEADER.size:
        raise SnapshotCorruptionError(
            f"{source}: truncated snapshot header ({size} bytes)"
        )
    header = stream.read(SNAPSHOT_HEADER.size + MANIFEST_HEADER.size)
    magic, version = SNAPSHOT_HEADER.unpack_from(header, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotCorruptionError(f"{source}: bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptionError(
            f"{source}: unsupported snapshot version {version}"
        )
    manifest_length, manifest_crc = MANIFEST_HEADER.unpack_from(
        header, SNAPSHOT_HEADER.size
    )
    manifest_start = len(header)
    manifest_end = manifest_start + manifest_length
    if manifest_end > size:
        raise SnapshotCorruptionError(
            f"{source}: truncated manifest "
            f"({size - manifest_start} of {manifest_length} bytes)"
        )
    manifest_bytes = stream.read(manifest_length)
    if zlib.crc32(manifest_bytes) != manifest_crc:
        raise SnapshotCorruptionError(f"{source}: manifest checksum mismatch")
    manifest = json.loads(manifest_bytes.decode("utf-8"))

    offset = manifest_end
    tables = []
    for table_entry in manifest["tables"]:
        dumps = []
        for column_entry in table_entry["columns"]:
            nbytes = int(column_entry["nbytes"])
            end = offset + nbytes
            section_name = f"{table_entry['name']}.{column_entry['name']}"
            if end > size:
                raise SnapshotCorruptionError(
                    f"{source}: truncated column section {section_name} "
                    f"({size - offset} of {nbytes} bytes)"
                )
            dtype = dtype_by_name(column_entry["dtype"])
            rows = int(column_entry["rows"])
            values = np.empty(
                rows + spare.get(table_entry["name"], 0), dtype=dtype.numpy_dtype
            )[:rows]
            if values.nbytes != nbytes:
                raise SnapshotCorruptionError(
                    f"{source}: column section {section_name} at byte {offset} "
                    f"holds {nbytes} bytes, not {len(values)} {dtype.name} rows"
                )
            read = stream.readinto(memoryview(values).cast("B"))
            if read != nbytes:
                raise SnapshotCorruptionError(
                    f"{source}: truncated column section {section_name} "
                    f"({read} of {nbytes} bytes)"
                )
            if zlib.crc32(values) != int(column_entry["crc"]):
                raise SnapshotCorruptionError(
                    f"{source}: checksum mismatch in column section "
                    f"{section_name} at byte {offset}"
                )
            dumps.append(ColumnDump(column_entry["name"], dtype, values))
            offset = end
        tables.append(
            TableState(
                name=table_entry["name"],
                columns=tuple(dumps),
                deleted_rows=tuple(table_entry["deleted_rows"]),
            )
        )
    if offset != size:
        raise SnapshotCorruptionError(
            f"{source}: {size - offset} trailing bytes after the last "
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


@pytest.fixture
def split_everything(monkeypatch):
    """Every non-empty byte range is worked on by two threads, in pieces of
    at most 8 bytes."""
    monkeypatch.setattr(checksum, "SPLIT_MIN_BYTES", 1)
    monkeypatch.setattr(checksum, "PIECE_BYTES", 8)


@st.composite
def states(draw):
    """Snapshot states of 0-3 tables of 1-3 columns, any supported type,
    0-40 rows (so empty sections too), with tombstones."""
    tables = []
    for t in range(draw(st.integers(0, 3))):
        rows = draw(st.integers(0, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        columns = tuple(
            ColumnDump(f"c{c}", dtype, rng.integers(-1000, 1000, rows)
                       .astype(dtype.numpy_dtype))
            for c, dtype in enumerate(draw(st.lists(
                st.sampled_from(SUPPORTED_TYPES), min_size=1, max_size=3)))
        )
        deleted = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=3)) if rows else set()
        tables.append(TableState(f"t{t}", columns, tuple(sorted(deleted))))
    return SnapshotState("db", 7, 8, tuple(tables),
                         (IndexModeState("t0", "c0", "cracking", {}),) if tables else ())


def sections_range(data):
    """``(start, end)`` of the file's column-section bytes."""
    (length, _) = MANIFEST_HEADER.unpack_from(data, SNAPSHOT_HEADER.size)
    return SNAPSHOT_HEADER.size + MANIFEST_HEADER.size + length, len(data)


def piece_cuts(state, start):
    """Every file offset where one piece of a section ends and the next
    begins (with the pieces ``split_everything`` sets)."""
    cuts, offset = [], start
    for table in state.tables:
        for dump in table.columns:
            end = offset + dump.values.nbytes
            cuts += [low for low, _ in checksum.pieces(offset, end)[1:]]
            offset = end
    return cuts


def flip(data, at):
    return data[:at] + bytes([data[at] ^ 0x5A]) + data[at + 1:]


#: how a file is damaged, given its bytes, a position among the sections
#: and a later one (several damaged sections are named in manifest order)
DAMAGES = {
    "intact": lambda data, at, later: data,
    "flip": lambda data, at, later: flip(data, at),
    "truncate": lambda data, at, later: data[:at],
    "flip-then-truncate": lambda data, at, later: flip(data, at)[:later],
    "flip-twice": lambda data, at, later: flip(flip(data, at), later),
    "trailing-byte": lambda data, at, later: data + b"\0",
}


def outcome(decode, data, spare):
    try:
        state = decode(data, source="snap", spare=spare)
    except SnapshotCorruptionError as exc:
        return "raises", str(exc)
    layout = [
        (dump.values.tobytes(), len(dump.values.base))
        for table in state.tables for dump in table.columns
    ]
    return "decodes", state, layout


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    state=states(),
    damage=st.sampled_from(sorted(DAMAGES)),
    choice=st.data(),
    spare=st.integers(0, 5),
)
def test_the_split_load_equals_the_sequential_one(
    split_everything, state, damage, choice, spare
):
    data = encode_snapshot(state)
    start, end = sections_range(data)
    if start < end:
        cuts = piece_cuts(state, start)
        at = choice.draw(
            st.sampled_from(cuts) if cuts and choice.draw(st.booleans(), "at a cut")
            else st.integers(start, end - 1), "damaged byte")
        later = choice.draw(st.integers(at, end - 1), "later byte")
        data = DAMAGES[damage](data, at, later)
    room = {table.name: spare for table in state.tables}
    expected = outcome(sequential_decode, data, room)
    if expected[0] == "decodes":
        assert expected[1] == state
    assert outcome(decode_snapshot, data, room) == expected
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "snapshot-00000000000000000007.snap"
        path.write_bytes(data)
        with open(path, "rb") as handle:
            assert outcome(decode_snapshot, handle, room) == expected


def test_an_empty_database_loads_in_no_pieces(split_everything):
    state = SnapshotState("empty", -1, 0)
    assert decode_snapshot(encode_snapshot(state)) == state


def test_a_section_in_many_pieces_is_combined(split_everything, tmp_path):
    """One column section of 8 008 bytes in pieces of 8: a flipped byte
    on either side of any cut is named."""
    values = np.arange(1001, dtype=np.int64)
    state = SnapshotState("db", 1, 2, (TableState(
        "t", (ColumnDump("c", dtype_by_name("int64"), values),), ()),))
    path = SnapshotStore(tmp_path).write(state)
    assert SnapshotStore(tmp_path).load(path) == state
    data = path.read_bytes()
    start, end = sections_range(data)
    for at in (start, start + 7, start + 8, (start + end) // 2, end - 1):
        path.write_bytes(flip(data, at))
        with pytest.raises(SnapshotCorruptionError,
                           match="checksum mismatch in column section t.c"):
            SnapshotStore(tmp_path).load(path)


def _threads_reading(monkeypatch, tmp_path):
    """Load a two-table snapshot file; the thread idents that read pieces."""
    idents = set()
    reader = snapshot._reader

    def recording(data):
        read, size = reader(data)

        def recorded(view, offset):
            idents.add(threading.get_ident())
            return read(view, offset)

        return recorded, size

    monkeypatch.setattr(snapshot, "_reader", recording)
    path = SnapshotStore(tmp_path).write(two_tables())
    assert SnapshotStore(tmp_path).load(path) == two_tables()
    return idents


def two_tables():
    int64 = dtype_by_name("int64")
    return SnapshotState("db", 3, 4, tuple(
        TableState(name, (ColumnDump("c", int64, np.arange(3000, dtype=np.int64)),), ())
        for name in ("a", "b")
    ))


def test_a_load_below_the_threshold_reads_on_the_caller(monkeypatch, tmp_path):
    assert _threads_reading(monkeypatch, tmp_path) == {threading.get_ident()}


def test_a_load_above_the_threshold_reads_on_two_threads(
    split_everything, monkeypatch, tmp_path
):
    idents = _threads_reading(monkeypatch, tmp_path)
    assert threading.get_ident() in idents and len(idents) == 2


def test_no_thread_outlives_a_load(split_everything, monkeypatch, tmp_path):
    path = SnapshotStore(tmp_path).write(two_tables())
    before = threading.active_count()
    assert SnapshotStore(tmp_path).load(path) == two_tables()
    assert threading.active_count() == before
    # a damaged file
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorruptionError, match="checksum mismatch in column section b.c"):
        SnapshotStore(tmp_path).load(path)
    assert threading.active_count() == before
    # a read that fails on the helper thread is raised on the caller
    reader = snapshot._reader
    caller = threading.get_ident()

    def failing(data):
        read, size = reader(data)

        def off_the_caller(view, offset):
            if threading.get_ident() != caller:
                raise OSError("injected read failure")
            return read(view, offset)

        return off_the_caller, size

    monkeypatch.setattr(snapshot, "_reader", failing)
    with pytest.raises(OSError, match="injected read failure"):
        SnapshotStore(tmp_path).load(path)
    assert threading.active_count() == before


def test_the_write_side_crcs_are_unchanged(monkeypatch):
    """Split or not, a snapshot's bytes and a frame's crc are zlib's."""
    rng = np.random.default_rng(5)
    state = SnapshotState("db", 1, 2, (TableState("t", tuple(
        ColumnDump(f"c{i}", dtype_by_name("int64"), rng.integers(0, 10**9, 5000))
        for i in range(2)), ()),))
    record = WalRecord(kind="create_table", sequence=1, table="t",
                       columns=state.tables[0].columns)
    whole = encode_snapshot(state), frame_record(record)
    monkeypatch.setattr(checksum, "SPLIT_MIN_BYTES", 1)
    monkeypatch.setattr(checksum, "PIECE_BYTES", 1000)
    assert (encode_snapshot(state), frame_record(record)) == whole
    frame = whole[1]
    _, crc = FRAME_HEADER.unpack_from(frame, 0)
    assert crc == zlib.crc32(frame[FRAME_HEADER.size:])
    payloads, valid_end, error = scan_frames(frame)
    assert (len(payloads), valid_end, error) == (1, len(frame), None)
    flipped = frame[:-1] + bytes([frame[-1] ^ 1])
    payloads, valid_end, error = scan_frames(flipped)
    assert payloads == [] and "checksum mismatch in frame at byte 0" in error.reason
