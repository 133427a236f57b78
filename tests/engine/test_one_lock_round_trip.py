"""A query takes each path lock once, and holds only the mutating ones.

``Session.execute`` enters ``AccessPathLockManager.claimed``, which locks
every path the plans select through (sorted), asks ``reorganizes_on_read``
under the lock and keeps only the locks of paths a selection can mutate.
So a lone query on an adapting column acquires its path lock exactly once;
a converged column's lock is free again before the kernel runs (readers of
it do not serialize); and a batch over two mutating paths holds both until
its last query is journaled.  Everything is observed through the locks
themselves and the journal hook — no clock.  Last, more threads than cores
crack one column through lone queries and batches while the interpreter
switches threads as often as it can: every answer stays exact.
"""

import sys
import threading

import numpy as np
import pytest

from repro.engine.concurrency import AccessPathLockManager
from repro.engine.database import Database
from repro.engine.query import Query

KEY_A = ("path", "facts", "a")
KEY_B = ("path", "facts", "b")


@pytest.fixture
def database(rng):
    db = Database("lock-round-trip")
    size = 2000
    db.create_table("facts", {
        "a": rng.integers(0, 1_000, size=size).astype(np.int64),
        "b": rng.integers(0, 1_000, size=size).astype(np.int64),
    })
    return db


class CountingLock:
    """A path lock's stand-in that counts acquisitions (any entry form)."""

    def __init__(self, lock):
        self._lock = lock
        self.acquisitions = 0

    def acquire(self, blocking=True, timeout=-1):
        acquired = self._lock.acquire(blocking, timeout)
        self.acquisitions += acquired
        return acquired

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


@pytest.fixture
def counted(monkeypatch):
    """Every lock ``lock_for`` hands out, wrapped once per key in a
    :class:`CountingLock`."""
    wrapped = {}
    lock_for = AccessPathLockManager.lock_for

    def counting(self, key):
        lock = lock_for(self, key)
        if key not in wrapped:
            wrapped[key] = CountingLock(lock)
        return wrapped[key]

    monkeypatch.setattr(AccessPathLockManager, "lock_for", counting)
    return wrapped


def reference_positions(db, low, high, column="a"):
    values = db.table("facts")[column].values
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


def test_a_lone_query_acquires_its_path_lock_once(database, session, counted):
    database.set_indexing("facts", "a", "cracking")
    session.execute(Query.range_query("facts", "a", 100, 400))
    path = database.access_path("facts", "a")
    assert path.reorganizes_on_read  # still adapting: an exclusive claim
    counted[KEY_A].acquisitions = 0
    result = session.execute(Query.range_query("facts", "a", 200, 600))
    assert counted[KEY_A].acquisitions == 1
    assert not counted[KEY_A].locked()
    assert set(result.positions.tolist()) == reference_positions(database, 200, 600)


def test_a_converged_column_is_read_without_its_lock(
        database, session, counted, monkeypatch):
    database.set_indexing("facts", "a", "cracking")
    cracked = database.access_path("facts", "a")
    for key in np.unique(database.table("facts")["a"].values).tolist():
        cracked.crack_at(key)
    assert cracked.converged
    search = cracked.search_many
    held_while_searching = []

    def observing(ranges, counters_list):
        held_while_searching.append(counted[KEY_A].locked())
        return search(ranges, counters_list)

    monkeypatch.setattr(cracked, "search_many", observing)
    result = session.execute(Query.range_query("facts", "a", 300, 700))
    # asked under the lock, then released before the kernel ran: another
    # reader of the converged path could have run beside this one
    assert counted[KEY_A].acquisitions == 1
    assert held_while_searching == [False]
    assert set(result.positions.tolist()) == reference_positions(database, 300, 700)


def test_a_two_path_batch_holds_both_locks_until_its_last_journal_record(
        database, session, counted, monkeypatch):
    database.set_indexing("facts", "a", "cracking")
    database.set_indexing("facts", "b", "cracking")
    journal_record = database._journal_record
    held = []

    def recording(kind, *args, **kwargs):
        held.append([counted[key].locked() for key in (KEY_A, KEY_B)])
        return journal_record(kind, *args, **kwargs)

    monkeypatch.setattr(database, "_journal_record", recording)
    session.execute_many([
        Query.range_query("facts", "a", 0, 500),
        Query.range_query("facts", "b", 0, 250),
        Query.range_query("facts", "a", 500, 1_000),
        Query.range_query("facts", "b", 250, 900),
    ])
    assert held == [[True, True]] * 4
    assert [counted[key].acquisitions for key in (KEY_A, KEY_B)] == [1, 1]
    assert not any(counted[key].locked() for key in (KEY_A, KEY_B))


def test_threads_cracking_one_column_stay_exact_under_fast_switching(database):
    database.set_indexing("facts", "a", "cracking")
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            with database.session() as session:
                for round_ in range(60):
                    lows = rng.integers(0, 1_000, 1 + round_ % 3).tolist()
                    queries = [Query.range_query("facts", "a", low, low + 40)
                               for low in lows]
                    results = (session.execute_many(queries) if len(queries) > 1
                               else [session.execute(queries[0])])
                    for low, result in zip(lows, results):
                        if set(result.positions.tolist()) != reference_positions(
                                database, low, low + 40):
                            errors.append(f"wrong answer for [{low}, {low + 40})")
        except Exception as error:  # noqa: BLE001 - surfaced by the test
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    database.access_path("facts", "a").check_invariants()
    assert not database._path_locks.lock_for(KEY_A).locked()
