"""Regression tests pinning the races surfaced by reprolint's first run.

Each test here guards one fix made when ``reprolint`` first ran over the
tree (see ``docs/CONCURRENCY.md``).  The static pins — "the bad pattern
lints dirty, the fixed tree lints clean" — live in
``tests/analysis_tools``; these tests pin the *runtime* behaviour.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine.database import Database
from repro.core.strategies import CrackingStrategy, create_strategy


@pytest.fixture
def database(rng):
    db = Database("lint-regressions")
    db.create_table(
        "facts",
        {"a": rng.integers(0, 10_000, size=2_000).astype(np.int64)},
    )
    return db


class _GatedLock:
    """Lock wrapper that parks one named thread at the acquire point.

    The thread named ``gated`` signals ``at_lock`` and waits for
    ``proceed`` *before* acquiring the real lock; every other thread
    passes straight through.  This makes a lost race deterministic.
    """

    def __init__(self, real_lock, gated_name: str):
        self._real = real_lock
        self._gated_name = gated_name
        self.at_lock = threading.Event()
        self.proceed = threading.Event()

    def __enter__(self):
        if threading.current_thread().name == self._gated_name:
            self.at_lock.set()
            assert self.proceed.wait(timeout=10.0)
        return self._real.__enter__()

    def __exit__(self, *exc):
        return self._real.__exit__(*exc)


class TestTombstonePublishAfterDrop:
    """A tombstone rebuild must never publish for a dropped table.

    The race: a batch worker passes ``_tombstones``'s unlocked staleness
    check, then blocks on ``_tombstone_lock``; meanwhile the table is
    dropped (and recreated).  Before the fix the worker would publish an
    array built from the *old* table's tombstone set into the cache of
    the new, tombstone-free table, hiding freshly inserted rows.
    """

    def test_rebuild_racing_drop_publishes_nothing(self, database, session, rng):
        session.delete_row("facts", 7)
        session.delete_row("facts", 11)
        # invalidate the cache so the next _tombstones call must rebuild
        with database._tombstone_lock:
            database._tombstone_cache.pop("facts", None)

        gate = _GatedLock(database._tombstone_lock, "gated")
        database._tombstone_lock = gate
        results = {}

        def rebuild():
            results["value"] = database._tombstones("facts")

        worker = threading.Thread(target=rebuild, name="gated")
        worker.start()
        assert gate.at_lock.wait(timeout=10.0)
        # the worker is parked right before the lock: drop and recreate
        database.drop_table("facts")
        database.create_table(
            "facts",
            {"a": rng.integers(0, 10_000, size=500).astype(np.int64)},
        )
        gate.proceed.set()
        worker.join(timeout=10.0)
        assert not worker.is_alive()

        assert results["value"] is None
        assert "facts" not in database._tombstone_cache
        # the recreated table must see every one of its rows
        positions = np.arange(500, dtype=np.int64)
        visible = database.visible_positions("facts", positions)
        assert len(visible) == 500


class TestConcurrentDeleteAndTombstoneReads:
    """DML deletes racing cache rebuilds must stay internally consistent."""

    def test_reader_hammer_during_deletes(self, database, session):
        stop = threading.Event()
        errors = []

        def reader():
            positions = np.arange(2_000, dtype=np.int64)
            while not stop.is_set():
                try:
                    # deletes only accumulate, so the visible count must sit
                    # between the tombstone counts sampled around the read
                    before = database._tombstones("facts")
                    visible = database.visible_positions("facts", positions)
                    after = database._tombstones("facts")
                    low = 0 if before is None else len(before)
                    high = 0 if after is None else len(after)
                    assert 2_000 - high <= len(visible) <= 2_000 - low
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for rowid in range(0, 600, 3):
                session.delete_row("facts", rowid)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10.0)
        assert not errors
        assert database._deleted_rows["facts"] == set(range(0, 600, 3))
        tombstones = database._tombstones("facts")
        assert tombstones is not None
        assert tombstones.tolist() == sorted(range(0, 600, 3))


class TestReorganizesOnReadDeclarations:
    """Updatable strategies must *declare* that their reads reorganize.

    Batch scheduling gives shared claims to strategies whose reads do not
    reorganize; an updatable strategy silently inheriting the default
    would be one refactor away from data races, so the flag must be an
    explicit declaration on the wrapper class (reprolint rule RL003), and
    the updatable names must answer True even when the column itself has
    converged.
    """

    def test_flag_declared_on_the_class_itself(self):
        assert "reorganizes_on_read" in CrackingStrategy.__dict__

    @pytest.mark.parametrize(
        "name", ["updatable-cracking", "partitioned-updatable-cracking"]
    )
    def test_updatable_names_always_reorganize(self, name):
        strategy = create_strategy(name, np.arange(64, dtype=np.int64))
        for low in range(64):
            strategy.search(low, low + 1)
        assert strategy.cracked.converged
        assert strategy.reorganizes_on_read is True
