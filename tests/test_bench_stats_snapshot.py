"""Regression: benchmark stat snapshots hold the object's stats lock.

The parallel fan-out columns update statistics like ``queries_processed``
under their ``_stats_lock`` (declared via ``@guarded_by``); the benchmark
drivers used to read them bare, which is a data race under pool workers.
``repro.workloads.benchmark.stats_snapshot`` (what the figure table's
structure probes read through) is the fix — these tests pin down that it
really holds the lock across *all* requested reads (one consistent
snapshot) and that lock-less single-threaded structures keep working.
"""

import threading

import numpy as np

from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn
from repro.workloads.benchmark import stats_snapshot


class _RecordingLock:
    """A context-manager lock that records whether it was held during reads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.held = False
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.held = True
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info):
        self.held = False
        self._lock.release()
        return False


class _GuardedColumn:
    """Stat reads must observe ``_stats_lock`` held."""

    def __init__(self):
        self._stats_lock = _RecordingLock()
        self._queries = 3
        self._merges = 1

    @property
    def queries_processed(self):
        assert self._stats_lock.held, "stat read outside the stats lock"
        return self._queries

    @property
    def merges_performed(self):
        assert self._stats_lock.held, "stat read outside the stats lock"
        return self._merges


def test_snapshot_holds_the_stats_lock_across_all_reads():
    column = _GuardedColumn()
    snapshot = stats_snapshot(column, "queries_processed", "merges_performed")
    assert snapshot == {"queries_processed": 3, "merges_performed": 1}
    # one acquisition for the whole snapshot, not one per attribute
    assert column._stats_lock.acquisitions == 1
    assert not column._stats_lock.held


def test_snapshot_reads_lockless_objects_directly():
    class Plain:
        merges_performed = 7

    assert stats_snapshot(Plain(), "merges_performed") == {"merges_performed": 7}


def test_snapshot_on_a_real_updatable_column():
    rng = np.random.default_rng(3)
    values = rng.random(200)
    column = UpdatableCrackedColumn(values)
    # a delete inside the first range, merged by its query
    column.delete(int(np.flatnonzero((values >= 0.1) & (values < 0.3))[0]))
    for low in (0.1, 0.4, 0.7):
        column.search(low, low + 0.2)
    snapshot = stats_snapshot(column, "queries_processed", "merges_performed")
    assert snapshot == {"queries_processed": 3, "merges_performed": 1}
    column.close()


def test_snapshot_does_not_deadlock_under_a_concurrent_writer():
    """The helper must come back even while a writer hammers the lock."""
    column = PartitionedCrackedColumn(
        np.arange(200, dtype=np.float64), partitions=2
    )
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            with column._stats_lock:
                column.queries_processed += 1

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        for _ in range(50):
            snapshot = stats_snapshot(column, "queries_processed")
            assert snapshot["queries_processed"] >= 0
    finally:
        stop.set()
        thread.join(timeout=5)
    column.close()
