"""Write-ahead-log tests: append/scan, rotation, sync modes, corruption."""

import os
import stat
import tracemalloc

import numpy as np
import pytest

from repro.durability import faults
from repro.durability.faults import FaultInjector, KilledByFault
from repro.durability.record import WalRecord
from repro.durability.wal import (
    SEGMENT_HEADER,
    WAL_SUBDIR,
    WalCorruptionError,
    WriteAheadLog,
)
from repro.engine.database import Database


def insert(sequence, key=1):
    return WalRecord(
        sequence=sequence, kind="insert", table="facts", rowid=sequence,
        values={"key": key},
    )


def append_range(wal, start, count):
    for sequence in range(start, start + count):
        wal.append(insert(sequence))


class TestAppendScan:
    def test_appended_records_scan_back_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        append_range(wal, 0, 10)
        wal.close()
        scan = WriteAheadLog.scan(tmp_path)
        assert [record.sequence for record in scan.records] == list(range(10))
        assert scan.torn_tail is None
        assert scan.last_sequence == 9

    def test_a_scan_holds_the_journal_once(self, tmp_path):
        # every payload is a view of the segment it was read from, and the
        # create_table columns are views of the payload: a copy of each
        # payload beside the segment read 2.00x the segment
        rows = 100_000
        rng = np.random.default_rng(3)
        database = Database("durable", data_dir=tmp_path)
        database.create_table("facts", {
            "key": rng.integers(0, 1_000_000, size=rows).astype(np.int64),
            "payload": rng.uniform(0, 100, size=rows),
        })
        database.close()
        wal_dir = tmp_path / WAL_SUBDIR
        segment_bytes = sum(path.stat().st_size for path in wal_dir.glob("wal-*.seg"))
        assert segment_bytes > 16 * rows
        tracemalloc.start()
        try:
            scan = WriteAheadLog.scan(wal_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (record,) = scan.records
        assert [len(dump.values) for dump in record.columns] == [rows, rows]
        assert peak <= 1.1 * segment_bytes, f"{peak / segment_bytes:.2f}x the segment"

    def test_empty_directory_scans_clean(self, tmp_path):
        scan = WriteAheadLog.scan(tmp_path)
        assert scan.records == [] and scan.segments == []

    def test_reopen_resumes_after_existing_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        append_range(wal, 0, 5)
        wal.close()
        resumed = WriteAheadLog(tmp_path, sync="always")
        assert WriteAheadLog.scan(tmp_path).last_sequence == 4
        append_range(resumed, 5, 3)
        resumed.close()
        scan = WriteAheadLog.scan(tmp_path)
        assert [record.sequence for record in scan.records] == list(range(8))

    def test_rotation_starts_new_segment_with_base_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always", segment_bytes=256)
        append_range(wal, 0, 30)
        wal.close()
        scan = WriteAheadLog.scan(tmp_path)
        assert len(scan.segments) > 1
        assert [record.sequence for record in scan.records] == list(range(30))
        bases = [segment.base_sequence for segment in scan.segments]
        assert bases == sorted(bases)
        assert bases[0] == 0 and bases[-1] > 0

    def test_truncate_through_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always", segment_bytes=256)
        append_range(wal, 0, 30)
        wal.truncate_through(29)
        append_range(wal, 30, 5)
        wal.close()
        scan = WriteAheadLog.scan(tmp_path)
        assert [record.sequence for record in scan.records] == list(range(30, 35))
        # truncation preserves the coverage proof: the earliest surviving
        # base must cover the first sequence after the snapshot
        assert scan.base_sequence <= 30

    def test_truncate_after_reopen_drops_segments_known_from_the_scan(
        self, tmp_path
    ):
        # truncation decides coverage from in-memory segment metadata (no
        # re-decode under the caller's gates); after a reopen that
        # metadata must be seeded from the resume scan or nothing would
        # ever be dropped
        wal = WriteAheadLog(tmp_path, sync="always", segment_bytes=256)
        append_range(wal, 0, 30)
        wal.close()
        resumed = WriteAheadLog(tmp_path, sync="always", segment_bytes=256)
        removed = resumed.truncate_through(29)
        assert removed >= 1
        append_range(resumed, 30, 5)
        resumed.close()
        scan = WriteAheadLog.scan(tmp_path)
        assert [record.sequence for record in scan.records] == list(
            range(30, 35)
        )
        assert scan.base_sequence <= 30


class TestSyncModes:
    def test_always_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        append_range(wal, 0, 4)
        assert wal.stats()["fsync_calls"] >= 4
        wal.close()

    def test_batch_group_commits(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="batch", batch_size=4)
        append_range(wal, 0, 8)
        fsyncs = wal.stats()["fsync_calls"]
        assert 1 <= fsyncs <= 3
        wal.close()

    def test_off_never_fsyncs_on_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="off")
        append_range(wal, 0, 8)
        assert wal.stats()["fsync_calls"] == 0
        wal.close()

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, sync="sometimes")


class TestCorruptionPolicy:
    def test_torn_tail_is_tolerated_and_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        append_range(wal, 0, 6)
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])  # tear the last record
        scan = WriteAheadLog.scan(tmp_path)
        assert [record.sequence for record in scan.records] == list(range(5))
        assert scan.torn_tail is not None
        resumed = WriteAheadLog(tmp_path, sync="always", scan=scan)
        append_range(resumed, 5, 1)
        resumed.close()
        clean = WriteAheadLog.scan(tmp_path)
        assert [record.sequence for record in clean.records] == list(range(6))
        assert clean.torn_tail is None

    def test_bit_flip_mid_journal_is_loud(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        append_range(wal, 0, 6)
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
        FaultInjector.corrupt_file(segment, SEGMENT_HEADER.size + 6)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog.scan(tmp_path)

    def test_torn_record_in_non_final_segment_is_loud(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always", segment_bytes=256)
        append_range(wal, 0, 30)
        wal.close()
        first = sorted(tmp_path.glob("wal-*.seg"))[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(WalCorruptionError, match="non-final"):
            WriteAheadLog.scan(tmp_path)

    def test_bad_segment_header_is_loud(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always")
        append_range(wal, 0, 2)
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
        FaultInjector.corrupt_file(segment, 0)  # magic byte
        with pytest.raises(WalCorruptionError):
            WriteAheadLog.scan(tmp_path)


class TestFaultInjection:
    def test_byte_budget_kill_tears_the_tail(self, tmp_path):
        injector = FaultInjector(fail_after_bytes=200)
        wal = WriteAheadLog(tmp_path, sync="always", injector=injector)
        with pytest.raises(KilledByFault):
            append_range(wal, 0, 1_000)
        assert injector.killed
        scan = WriteAheadLog.scan(tmp_path)
        # the surviving prefix is clean; at most the tail is torn
        sequences = [record.sequence for record in scan.records]
        assert sequences == list(range(len(sequences)))

    def test_kill_point_before_fsync_loses_nothing_already_synced(
        self, tmp_path
    ):
        injector = FaultInjector(kill_at="wal.before_fsync")
        wal = WriteAheadLog(tmp_path, sync="always", injector=injector)
        with pytest.raises(KilledByFault):
            append_range(wal, 0, 10)
        scan = WriteAheadLog.scan(tmp_path)
        assert len(scan.records) <= 1

    def test_writes_after_kill_are_dropped(self, tmp_path):
        injector = FaultInjector(fail_after_bytes=150)
        wal = WriteAheadLog(tmp_path, sync="off", injector=injector)
        with pytest.raises(KilledByFault):
            append_range(wal, 0, 1_000)
        size_at_kill = sum(
            path.stat().st_size for path in tmp_path.glob("wal-*.seg")
        )
        with pytest.raises(KilledByFault):
            wal.append(insert(2_000))
        assert sum(
            path.stat().st_size for path in tmp_path.glob("wal-*.seg")
        ) == size_at_kill


class TestLifecycle:
    def test_append_after_close_is_an_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="off")
        wal.close()
        with pytest.raises(RuntimeError):
            wal.append(insert(0))

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="off")
        wal.close()
        wal.close()

    def test_stats_report_counters(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync="always", segment_bytes=256)
        append_range(wal, 0, 30)
        stats = wal.stats()
        assert stats["appended_records"] == 30
        assert stats["rotations"] >= 1
        assert stats["fsync_calls"] >= 30
        wal.close()


def test_fsync_directory_syncs_the_directory_and_closes_it(tmp_path, monkeypatch):
    """The one directory fsync the WAL and the snapshot writer share opens
    the directory itself, syncs that descriptor and closes it."""
    synced, closed = [], []
    fsync, close = os.fsync, os.close

    def recording_fsync(fd):
        synced.append((fd, stat.S_ISDIR(os.fstat(fd).st_mode)))
        return fsync(fd)

    def recording_close(fd):
        closed.append(fd)
        return close(fd)

    monkeypatch.setattr(faults.os, "fsync", recording_fsync)
    monkeypatch.setattr(faults.os, "close", recording_close)
    faults.fsync_directory(tmp_path)
    assert [is_directory for _, is_directory in synced] == [True]
    assert closed == [synced[0][0]]
