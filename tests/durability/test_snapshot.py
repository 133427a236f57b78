"""Snapshot tests: encode/decode, atomic store, pruning, corruption."""

import json
import shutil
import zlib

import numpy as np
import pytest

from repro.columnstore.types import dtype_by_name
from repro.durability.faults import FaultInjector, KilledByFault
from repro.durability.manager import DurabilityConfig
from repro.durability.record import ColumnDump
from repro.durability.snapshot import (
    MANIFEST_HEADER,
    SNAPSHOT_HEADER,
    IndexModeState,
    SnapshotCorruptionError,
    SnapshotState,
    SnapshotStore,
    TableState,
    decode_snapshot,
    encode_snapshot,
)
from repro.engine.database import Database
from repro.engine.query import Query

INT64 = dtype_by_name("int64")
FLOAT64 = dtype_by_name("float64")


def sample_state(high_water=10):
    return SnapshotState(
        name="db",
        high_water=high_water,
        op_sequence=high_water + 1,
        tables=(
            TableState(
                name="facts",
                columns=(
                    ColumnDump("key", INT64, np.arange(100, dtype=np.int64)),
                    ColumnDump("payload", FLOAT64,
                               np.linspace(0.0, 9.9, 100)),
                ),
                deleted_rows=(3, 17, 41),
            ),
            TableState(
                name="dim",
                columns=(
                    ColumnDump("id", INT64, np.arange(5, dtype=np.int64)),
                ),
                deleted_rows=(),
            ),
        ),
        modes=(
            IndexModeState("facts", "key", "cracking", {}),
            IndexModeState("facts", "payload", "full-index", {}),
        ),
    )


class TestEncodeDecode:
    def test_round_trip(self):
        state = sample_state()
        decoded = decode_snapshot(encode_snapshot(state))
        assert decoded == state

    def test_empty_database_round_trips(self):
        state = SnapshotState(name="empty", high_water=-1, op_sequence=0)
        assert decode_snapshot(encode_snapshot(state)) == state

    def test_bad_magic_is_loud(self):
        data = bytearray(encode_snapshot(sample_state()))
        data[0] ^= 0xFF
        with pytest.raises(SnapshotCorruptionError):
            decode_snapshot(bytes(data))

    def test_manifest_bit_flip_is_loud(self):
        data = bytearray(encode_snapshot(sample_state()))
        data[16] ^= 0x01
        with pytest.raises(SnapshotCorruptionError):
            decode_snapshot(bytes(data))

    def test_column_section_bit_flip_names_the_column(self):
        data = bytearray(encode_snapshot(sample_state()))
        data[-4] ^= 0xFF  # inside the last raw column section
        with pytest.raises(SnapshotCorruptionError) as info:
            decode_snapshot(bytes(data))
        assert "." in str(info.value)  # table.column diagnostic

    def test_a_manifest_whose_rows_disagree_with_its_bytes_is_loud(self):
        data = encode_snapshot(sample_state())
        manifest_start = SNAPSHOT_HEADER.size + MANIFEST_HEADER.size
        (length, _) = MANIFEST_HEADER.unpack_from(data, SNAPSHOT_HEADER.size)
        manifest = json.loads(data[manifest_start:manifest_start + length])
        manifest["tables"][1]["columns"][0]["rows"] = 4
        forged = json.dumps(manifest, sort_keys=True).encode("utf-8")
        data = (data[:SNAPSHOT_HEADER.size]
                + MANIFEST_HEADER.pack(len(forged), zlib.crc32(forged)) + forged
                + data[manifest_start + length:])
        with pytest.raises(SnapshotCorruptionError,
                           match="dim.id at byte .* holds 40 bytes, not 4 int64 rows"):
            decode_snapshot(data)

    def test_truncated_file_is_loud(self):
        data = encode_snapshot(sample_state())
        with pytest.raises(SnapshotCorruptionError):
            decode_snapshot(data[: len(data) // 2])


class TestStore:
    def test_write_then_load(self, tmp_path):
        store = SnapshotStore(tmp_path)
        state = sample_state()
        path = store.write(state)
        assert path.exists() and path.suffix == ".snap"
        assert store.load(path) == state

    def test_paths_sorted_by_high_water(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=10)
        for high_water in (5, 2, 9):
            store.write(sample_state(high_water))
        waters = [int(path.stem.split("-")[1]) for path in store.paths()]
        assert waters == sorted(waters)

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for high_water in range(6):
            store.write(sample_state(high_water))
        assert len(store.paths()) == 2
        waters = [int(path.stem.split("-")[1]) for path in store.paths()]
        assert waters == [4, 5]

    def test_no_tmp_file_survives_a_write(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(sample_state())
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "kill_at", ["snapshot.before_write", "snapshot.before_sync",
                    "snapshot.before_rename"]
    )
    def test_crash_before_rename_leaves_old_snapshot_intact(
        self, tmp_path, kill_at
    ):
        store = SnapshotStore(tmp_path)
        old = store.write(sample_state(high_water=3))
        injector = FaultInjector(kill_at=kill_at)
        crashing = SnapshotStore(tmp_path, injector=injector)
        with pytest.raises(KilledByFault):
            crashing.write(sample_state(high_water=8))
        survivor = SnapshotStore(tmp_path)
        assert survivor.paths()[-1] == old
        assert survivor.load(old) == sample_state(high_water=3)

    def test_torn_tmp_write_never_becomes_visible(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(sample_state(high_water=3))
        injector = FaultInjector(fail_after_bytes=64)
        crashing = SnapshotStore(tmp_path, injector=injector)
        with pytest.raises(KilledByFault):
            crashing.write(sample_state(high_water=8))
        survivor = SnapshotStore(tmp_path)
        waters = [int(path.stem.split("-")[1]) for path in survivor.paths()]
        assert waters == [3]
        # whatever tmp debris the crash left is ignored and pruned later
        survivor.write(sample_state(high_water=9))
        assert list(tmp_path.glob("*.tmp")) == []


def layout(path):
    """``(manifest_start, manifest_end, [(section name, start, end), ...])``
    of a snapshot file, read from its manifest."""
    data = path.read_bytes()
    manifest_start = SNAPSHOT_HEADER.size + MANIFEST_HEADER.size
    (length, _) = MANIFEST_HEADER.unpack_from(data, SNAPSHOT_HEADER.size)
    manifest = json.loads(data[manifest_start:manifest_start + length])
    offset = manifest_start + length
    sections = []
    for table in manifest["tables"]:
        for column in table["columns"]:
            name = f"{table['name']}.{column['name']}"
            sections.append((name, offset, offset + column["nbytes"]))
            offset += column["nbytes"]
    assert offset == len(data)
    return manifest_start, manifest_start + length, sections


def damage_cases(path):
    """Every way the stream decoder is asked to fail: ``(id, damage, what
    the diagnostic must say)``, ``damage`` taking the file's bytes."""
    manifest_start, manifest_end, sections = layout(path)
    cases = [
        ("empty", lambda data: data[:0], "truncated snapshot header (0 bytes)"),
        ("in-header", lambda data: data[:SNAPSHOT_HEADER.size],
         f"truncated snapshot header ({SNAPSHOT_HEADER.size} bytes)"),
        ("before-manifest", lambda data: data[:manifest_start],
         f"truncated manifest (0 of {manifest_end - manifest_start} bytes)"),
        ("in-manifest", lambda data: data[:manifest_end - 1],
         f"truncated manifest ({manifest_end - manifest_start - 1} of "
         f"{manifest_end - manifest_start} bytes)"),
        ("trailing-byte", lambda data: data + b"\0",
         "1 trailing bytes after the last column section"),
    ]
    for name, start, end in sections:
        nbytes = end - start
        cases += [
            (f"at-{name}", lambda data, start=start: data[:start],
             f"truncated column section {name} (0 of {nbytes} bytes)"),
            (f"short-{name}", lambda data, end=end: data[:end - 1],
             f"truncated column section {name} ({nbytes - 1} of {nbytes} bytes)"),
            (f"flip-{name}",
             lambda data, at=(start + end) // 2: data[:at] + bytes([data[at] ^ 0x5A]) + data[at + 1:],
             f"checksum mismatch in column section {name} at byte {start}"),
        ]
    return cases


def write_two_snapshots(data_dir):
    """A data directory with an older and a newer snapshot whose journal
    still covers everything past the older one (the newer snapshot's
    journal truncation never happened, as after a crash right behind its
    rename); returns the live database's tables for comparison."""
    rng = np.random.default_rng(3)
    database = Database("db", data_dir=data_dir,
                        durability=DurabilityConfig(sync="always"))
    database.create_table("facts", {
        "key": rng.integers(0, 1_000, size=300),
        "payload": rng.uniform(0, 1, size=300),
        "small": rng.integers(0, 50, size=300).astype(np.int32),
    })
    database.set_indexing("facts", "key", "updatable-cracking")
    with database.session() as session:
        for rowid in range(0, 300, 7):
            session.delete_row("facts", rowid)
    database.snapshot()
    with database.session() as session:
        for key in range(20):
            session.insert_row("facts", {"key": key, "payload": 0.5, "small": 1})
        session.delete_row("facts", 1)
    kept = {path.name: path.read_bytes() for path in (data_dir / "wal").iterdir()}
    database.snapshot()
    for name, data in kept.items():
        (data_dir / "wal" / name).write_bytes(data)
    tables = {name: database.table(name).columns for name in database.table_names}
    tombstones = database.table("facts").tombstones.copy()
    database.close()
    return tables, tombstones


@pytest.fixture(scope="module")
def two_snapshots(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("two-snapshots")
    tables, tombstones = write_two_snapshots(data_dir)
    return data_dir, tables, tombstones


class TestStreamDecoder:
    """``SnapshotStore.load`` reads each section of a real file straight
    into its array; every damage is still named, and recovery still falls
    back to the older snapshot."""

    def test_the_file_is_encode_snapshot(self, tmp_path):
        state = sample_state()
        path = SnapshotStore(tmp_path).write(state)
        assert path.read_bytes() == encode_snapshot(state)

    def test_a_torn_write_tears_inside_a_section(self, tmp_path):
        data = encode_snapshot(sample_state())
        _, _, sections = layout(SnapshotStore(tmp_path).write(sample_state()))
        start, end = sections[1][1:]
        crashing = SnapshotStore(
            tmp_path / "torn", injector=FaultInjector(fail_after_bytes=start + 5))
        with pytest.raises(KilledByFault, match=f"after 5 of {end - start} bytes"):
            crashing.write(sample_state())
        (torn,) = (tmp_path / "torn").glob("*.tmp")
        assert torn.read_bytes() == data[:start + 5]

    def test_every_damage_is_named(self, tmp_path):
        path = SnapshotStore(tmp_path).write(sample_state())
        intact = path.read_bytes()
        for case, damage, diagnostic in damage_cases(path):
            path.write_bytes(damage(intact))
            with pytest.raises(SnapshotCorruptionError) as info:
                SnapshotStore(tmp_path).load(path)
            assert str(info.value) == f"{path}: {diagnostic}", case
            # the bytes decoder is the same decoder
            with pytest.raises(SnapshotCorruptionError) as info:
                decode_snapshot(damage(intact), source=str(path))
            assert str(info.value) == f"{path}: {diagnostic}", case

    def test_recovery_falls_back_past_every_damage(self, two_snapshots, tmp_path):
        data_dir, tables, tombstones = two_snapshots
        older, newer = SnapshotStore(data_dir / "snapshots").paths()
        intact = newer.read_bytes()
        for case, damage, diagnostic in damage_cases(newer):
            copy = tmp_path / case
            shutil.copytree(data_dir, copy)
            (copy / "snapshots" / newer.name).write_bytes(damage(intact))
            recovered = Database.open(copy)
            try:
                report = recovered.recovery_report
                assert report.snapshot_path == str(copy / "snapshots" / older.name)
                assert report.skipped_snapshots == [
                    f"{copy / 'snapshots' / newer.name}: {diagnostic}"], case
                for name, column in tables["facts"].items():
                    assert np.array_equal(
                        recovered.table("facts")[name].values, column.values), case
                    # the older snapshot was read with room for its own tail
                    reopened = recovered.table("facts")[name]
                    assert len(reopened._data) == len(reopened), case
                assert np.array_equal(recovered.table("facts").tombstones, tombstones)
            finally:
                recovered.close()

    def test_reopened_columns_own_writable_aligned_arrays(self, two_snapshots, tmp_path):
        data_dir, tables, tombstones = two_snapshots
        shutil.copytree(data_dir, tmp_path / "copy")
        recovered = Database.open(tmp_path / "copy")
        try:
            assert recovered.recovery_report.skipped_snapshots == []
            for name, column in recovered.table("facts").columns.items():
                values = column.values
                owner = values if values.base is None else values.base
                assert values.flags.writeable and values.flags.aligned, name
                assert owner.flags.owndata and owner.base is None, name
                assert values.dtype == tables["facts"][name].values.dtype, name
            with recovered.session() as session:
                rowid = session.insert_row(
                    "facts", {"key": 5_000, "payload": 2.0, "small": 7})
                answer = session.execute(Query.range_query("facts", "key", 5_000, 5_001))
            assert rowid == len(tables["facts"]["key"])
            assert answer.positions.tolist() == [rowid]
            facts = recovered.table("facts")
            assert facts["key"].values[:-1].tolist() == tables["facts"]["key"].values.tolist()
            assert (facts["key"].values[-1], facts["payload"].values[-1],
                    facts["small"].values[-1]) == (5_000, 2.0, 7)
        finally:
            recovered.close()

