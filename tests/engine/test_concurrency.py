"""Tests for per-access-path batch concurrency (repro.engine.concurrency).

Covers the classification of access paths as read-only vs mutating under
selection (the ``reorganizes_on_read`` capability flag), a batch's claims,
the lock manager and the locks a batch holds, the batch arguments it
ignores, batch answers, concurrent readers of a converged path, and
tombstone reads racing a delete stream.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine.concurrency import (
    AccessPathClaim,
    AccessPathLockManager,
    LockOrderViolation,
    classify_plan,
    reorganizes_on_read,
    schedule_batch,
)
from repro.engine.database import Database
from repro.engine.query import Query, RangeSelection
from repro.engine.session import Session


@pytest.fixture
def database(rng):
    db = Database("concurrency-test")
    size = 4000
    db.create_table(
        "facts",
        {
            "a": rng.integers(0, 10_000, size=size).astype(np.int64),
            "b": rng.integers(0, 1_000, size=size).astype(np.int64),
            "c": rng.uniform(0, 100, size=size),
        },
    )
    return db


def reference_positions(db, low, high, column="a", table="facts"):
    values = db.table(table)[column].values
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


def crack_at_every_key(db, column="a", table="facts"):
    """Converge a cracking access path: a boundary at every distinct key
    leaves each piece holding one key, so the cracker column is sorted."""
    cracked = db.access_path(table, column)
    for key in np.unique(db.table(table)[column].values).tolist():
        cracked.crack_at(key)


class TestReorganizesOnRead:
    """Classification of every access-path kind."""

    def test_scan_and_full_index_are_read_only(self, database):
        assert reorganizes_on_read(database, "facts", "a") is False  # scan
        database.set_indexing("facts", "a", "full-index")
        assert reorganizes_on_read(database, "facts", "a") is False

    @pytest.mark.parametrize("mode", ["online", "soft"])
    def test_tuners_are_mutating(self, database, mode):
        database.set_indexing("facts", "a", mode)
        assert reorganizes_on_read(database, "facts", "a") is True

    @pytest.mark.parametrize(
        "mode",
        ["cracking", "stochastic-cracking", "partitioned-cracking",
         "updatable-cracking",
         "adaptive-merging", "hybrid-crack-sort", "hybrid-crack-crack"],
    )
    def test_adaptive_modes_start_mutating(self, database, mode):
        database.set_indexing("facts", "a", mode)
        assert reorganizes_on_read(database, "facts", "a") is True

    def test_sort_first_becomes_read_only_after_first_query(self, database, session):
        database.set_indexing("facts", "a", "sort-first")
        assert reorganizes_on_read(database, "facts", "a") is True
        session.execute(Query.range_query("facts", "a", 0, 100))
        assert reorganizes_on_read(database, "facts", "a") is False

    def test_cracking_becomes_read_only_once_fully_sorted(self, database, session):
        database.set_indexing("facts", "a", "cracking")
        session.execute(Query.range_query("facts", "a", 2_000, 8_000))
        assert reorganizes_on_read(database, "facts", "a") is True
        crack_at_every_key(database)
        path = database.access_path("facts", "a")
        assert path.is_fully_sorted()
        assert reorganizes_on_read(database, "facts", "a") is False
        # converged answers keep matching the reference and stay pure
        pieces_before = path.piece_count
        result = session.execute(Query.range_query("facts", "a", 1_000, 3_000))
        assert set(result.positions.tolist()) == reference_positions(
            database, 1_000, 3_000
        )
        assert path.piece_count == pieces_before

    def test_adaptive_merging_becomes_read_only_when_fully_merged(self, database, session):
        database.set_indexing("facts", "a", "adaptive-merging")
        session.execute(Query.range_query("facts", "a", None, None))
        path = database.access_path("facts", "a")
        assert path.fully_merged
        assert reorganizes_on_read(database, "facts", "a") is False
        result = session.execute(Query.range_query("facts", "a", 500, 700))
        assert set(result.positions.tolist()) == reference_positions(
            database, 500, 700
        )

    def test_hybrid_crack_sort_converges_but_crack_crack_does_not(self, database, session):
        database.set_indexing("facts", "a", "hybrid-crack-sort")
        database.set_indexing("facts", "b", "hybrid-crack-crack")
        session.execute(Query.range_query("facts", "a", None, None))
        session.execute(Query.range_query("facts", "b", None, None))
        # hybrid crack-sort: fully merged with sorted final pieces
        assert reorganizes_on_read(database, "facts", "a") is False
        # hybrid crack-crack: final pieces keep cracking on partial overlap
        assert reorganizes_on_read(database, "facts", "b") is True

    def test_updatable_modes_never_become_read_only(self, database, session):
        database.set_indexing("facts", "a", "updatable-cracking")
        session.execute(Query.range_query("facts", "a", None, None))
        assert reorganizes_on_read(database, "facts", "a") is True


class TestClassifyAndSchedule:
    """``schedule_batch`` is each plan's claims, classified once per batch."""

    def ranges_on_a(self):
        return [
            Query.range_query("facts", "a", low, low + 500)
            for low in range(0, 4_000, 500)
        ]

    def test_scan_claims_are_shared(self, database):
        queries = self.ranges_on_a()
        claims = schedule_batch(database, [database.planner.plan(q) for q in queries])
        assert claims == [[AccessPathClaim(("path", "facts", "a"), False)]] * len(queries)

    def test_cracking_claims_are_exclusive(self, database):
        database.set_indexing("facts", "a", "cracking")
        queries = self.ranges_on_a()
        claims = schedule_batch(database, [database.planner.plan(q) for q in queries])
        assert claims == [[AccessPathClaim(("path", "facts", "a"), True)]] * len(queries)

    def test_a_mixed_batch_has_both_claims(self, database):
        # cracking on "a" is exclusive, scans on "b" are shared — same table
        database.set_indexing("facts", "a", "cracking")
        queries = [
            Query.range_query("facts", "a", 0, 500),
            Query.range_query("facts", "b", 0, 100),
            Query.range_query("facts", "a", 500, 900),
            Query.range_query("facts", "b", 100, 300),
        ]
        claims = schedule_batch(database, [database.planner.plan(q) for q in queries])
        assert [[(c.key[2], c.exclusive) for c in plan] for plan in claims] == [
            [("a", True)], [("b", False)], [("a", True)], [("b", False)]
        ]

    def test_sideways_queries_claim_exclusively(self, database):
        database.set_indexing("facts", "a", "sideways-cracking")
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 1_000)],
            projections=["c"],
        )
        claims = classify_plan(database, database.planner.plan(query))
        assert [(c.key, c.exclusive) for c in claims] == [
            (("path", "facts", "a"), True)
        ]

    def test_refine_steps_claim_nothing(self, database):
        database.set_indexing("facts", "a", "cracking")
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 5_000), RangeSelection("b", 0, 500)],
        )
        claims = classify_plan(database, database.planner.plan(query))
        assert [c.key for c in claims] == [("path", "facts", "a")]


class TestLockManager:
    def test_lock_is_per_key_and_cached(self):
        manager = AccessPathLockManager()
        first = manager.lock_for(("path", "t", "a"))
        assert manager.lock_for(("path", "t", "a")) is first
        assert manager.lock_for(("path", "t", "b")) is not first

    def test_locked_holds_exclusive_claims_only(self, database):
        database.set_indexing("facts", "a", "cracking")
        queries = [
            Query.range_query("facts", "a", 0, 500),
            Query.range_query("facts", "b", 0, 100),
        ]
        claims = schedule_batch(database, [database.planner.plan(q) for q in queries])
        manager = AccessPathLockManager()
        with manager.locked(claims[0]):
            assert manager.lock_for(("path", "facts", "a")).locked()
            assert not manager.lock_for(("path", "facts", "b")).locked()
        assert not manager.lock_for(("path", "facts", "a")).locked()
        with manager.locked(claims[1]):  # read-only: no lock taken
            assert not manager.lock_for(("path", "facts", "b")).locked()

    def test_a_two_path_batch_holds_both_locks_until_it_ends(
        self, database, session, monkeypatch
    ):
        database.set_indexing("facts", "a", "cracking")
        database.set_indexing("facts", "b", "cracking")
        locks = [database._path_locks.lock_for(("path", "facts", column))
                 for column in ("a", "b")]
        held = []
        execute_locked = Session._execute_locked

        def recording(self, *args, **kwargs):
            held.append([lock.locked() for lock in locks])
            return execute_locked(self, *args, **kwargs)

        monkeypatch.setattr(Session, "_execute_locked", recording)
        session.execute_many([
            Query.range_query("facts", "a", 0, 2_000),
            Query.range_query("facts", "b", 0, 500),
            Query.range_query("facts", "a", 2_000, 4_000),
            Query.range_query("facts", "b", 500, 900),
        ])
        assert held == [[True, True]] * 4
        assert not any(lock.locked() for lock in locks)

    def test_a_failing_batch_releases_its_locks_and_gate(
        self, database, session, monkeypatch
    ):
        database.set_indexing("facts", "a", "cracking")
        execute_locked = Session._execute_locked
        calls = []

        def failing_second(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("query failed")
            return execute_locked(self, *args, **kwargs)

        monkeypatch.setattr(Session, "_execute_locked", failing_second)
        queries = [Query.range_query("facts", "a", low, low + 1_000)
                   for low in range(0, 4_000, 1_000)]
        with pytest.raises(RuntimeError, match="query failed"):
            session.execute_many(queries)
        assert not database._path_locks.lock_for(("path", "facts", "a")).locked()
        gate = database._table_gates.gate("facts")
        session.insert_row("facts", {"a": 5, "b": 5, "c": 5.0})
        assert gate.fenced_writes == 0  # the insert found the gate free
        monkeypatch.setattr(Session, "_execute_locked", execute_locked)
        results = session.execute_many(queries)
        for query, result in zip(queries, results):
            low, high = query.selections[0].low, query.selections[0].high
            assert set(result.positions.tolist()) == reference_positions(
                database, low, high
            )


class RaisingLock:
    """A path lock whose acquisition fails: a lock-witness violation, or an
    interrupt while waiting."""

    def __init__(self, error):
        self.error = error

    def acquire(self, blocking=True, timeout=-1):
        raise self.error

    def locked(self):
        return False


class TestAFailedEntryReleasesWhatItTook:
    """Entering the path locks acquires them one by one; whatever raises
    part way, the locks taken before it are released."""

    errors = [LockOrderViolation("rank regression"), KeyboardInterrupt()]

    def failing_on_b(self, manager, monkeypatch, error):
        lock_for = manager.lock_for
        monkeypatch.setattr(manager, "lock_for", lambda key: (
            RaisingLock(error) if key == ("path", "facts", "b") else lock_for(key)))

    @pytest.mark.parametrize("error", errors, ids=type)
    def test_locked(self, error, monkeypatch):
        manager = AccessPathLockManager()
        self.failing_on_b(manager, monkeypatch, error)
        claims = [AccessPathClaim(("path", "facts", column), True) for column in "ab"]
        with pytest.raises(type(error)):
            with manager.locked(claims):
                pass
        assert not manager.lock_for(("path", "facts", "a")).locked()

    @pytest.mark.parametrize("error", errors, ids=type)
    def test_claimed(self, database, error, monkeypatch):
        database.set_indexing("facts", "a", "cracking")
        database.set_indexing("facts", "b", "cracking")
        manager = database._path_locks
        self.failing_on_b(manager, monkeypatch, error)
        plans = [database.planner.plan(Query.range_query("facts", column, 0, 500))
                 for column in "ab"]
        with pytest.raises(type(error)):
            with manager.claimed(database, plans):
                pass
        assert not manager.lock_for(("path", "facts", "a")).locked()

    def test_claimed_when_the_question_raises_under_a_held_lock(
            self, database, monkeypatch):
        import repro.engine.concurrency as concurrency

        database.set_indexing("facts", "a", "cracking")
        database.set_indexing("facts", "b", "cracking")
        asked = concurrency.reorganizes_on_read

        def failing_on_b(database, table, column):
            if column == "b":
                raise RuntimeError("classification failed")
            return asked(database, table, column)

        monkeypatch.setattr(concurrency, "reorganizes_on_read", failing_on_b)
        manager = database._path_locks
        plans = [database.planner.plan(Query.range_query("facts", column, 0, 500))
                 for column in "ab"]
        with pytest.raises(RuntimeError, match="classification failed"):
            with manager.claimed(database, plans):
                pass
        assert not manager.lock_for(("path", "facts", "a")).locked()
        assert not manager.lock_for(("path", "facts", "b")).locked()


class TestExecuteManyIgnoredArguments:
    """``parallel`` and ``max_workers`` stay in the signature only for
    positional callers; a batch accepts and ignores them, unvalidated."""

    @pytest.mark.parametrize("workers", [0, -1, -7])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_non_positive_max_workers_is_ignored(
        self, database, session, workers, parallel
    ):
        database.set_indexing("facts", "a", "cracking")
        queries = [Query.range_query("facts", "a", low, low + 100)
                   for low in (0, 50, 5_000)]
        results = session.execute_many(queries, parallel, workers)
        for query, result in zip(queries, results):
            low, high = query.selections[0].low, query.selections[0].high
            assert set(result.positions.tolist()) == reference_positions(
                database, low, high
            )

    def test_empty_batch_still_counts(self, database, session):
        assert session.execute_many([], True, 0) == []
        stats = session.stats()
        assert stats.batches_executed == 1
        assert stats.queries_executed == 0


class TestBatchAnswers:
    def test_read_only_same_table_batch(self, database, session):
        database.set_indexing("facts", "b", "full-index")
        queries = []
        for low in range(0, 4_000, 400):
            queries.append(Query.range_query("facts", "a", low, low + 400))
            queries.append(
                Query.range_query("facts", "b", low // 10, low // 10 + 50)
            )
        results = session.execute_many(queries)
        for query, result in zip(queries, results):
            selection = query.selections[0]
            assert set(result.positions.tolist()) == reference_positions(
                database, selection.low, selection.high, column=selection.column
            )

    def test_mutating_path_beside_other_columns(self, database, session):
        database.set_indexing("facts", "a", "cracking")
        queries = [
            Query.range_query("facts", "a", 0, 2_000),
            Query.range_query("facts", "b", 0, 500),
            Query.range_query("facts", "c", 0.0, 50.0),
            Query.range_query("facts", "a", 2_000, 4_000),
        ]
        results = session.execute_many(queries)
        for query, result in zip(queries, results):
            selection = query.selections[0]
            assert set(result.positions.tolist()) == reference_positions(
                database, selection.low, selection.high, column=selection.column
            )

    def test_a_converged_column_answers_a_repeated_batch_alike(self, database, session):
        database.set_indexing("facts", "a", "cracking")
        session.execute(Query.range_query("facts", "a", 0, 20_000))
        crack_at_every_key(database)
        assert database.access_path("facts", "a").is_fully_sorted()
        queries = [
            Query.range_query("facts", "a", low, low + 700)
            for low in range(0, 7_000, 700)
        ]
        first = session.execute_many(queries)
        second = session.execute_many(queries)
        for left, right in zip(first, second):
            assert np.array_equal(left.positions, right.positions)
            assert left.counters == right.counters

    def test_query_counter_survives_concurrent_readers(self, database):
        # sort-first is read-only once built, and (unlike the managed
        # full-index mode) its strategy object carries a query counter;
        # queries on a converged path take no path lock, so eight threads
        # sharing one session race on the counter itself
        database.set_indexing("facts", "a", "sort-first")
        with database.session() as readers, ThreadPoolExecutor(8) as pool:
            readers.execute(Query.range_query("facts", "a", 0, 100))
            path = database.access_path("facts", "a")
            assert path.reorganizes_on_read is False
            before = path.queries_processed
            futures = [
                pool.submit(readers.execute,
                            Query.range_query("facts", "a", low, low + 50))
                for low in range(0, 4_000, 50)
            ]
            for future in futures:
                future.result()
        assert path.queries_processed == before + len(futures)


class TestTombstoneReadsRacingDeletes:
    """Batch workers and ungated readers racing a delete stream read the
    table's published tombstone array, which a delete replaces and never
    mutates, so no reader sees a torn one."""

    def test_parallel_batches_with_interleaved_deletes(self, database, session, rng):
        stop = threading.Event()
        errors = []
        values = database.table("facts")["a"].values
        initial_visible = {int(i) for i in range(len(values))}

        def delete_worker():
            victims = rng.permutation(len(values))[:1_500]
            for victim in victims:
                if stop.is_set():
                    return
                session.delete_row("facts", int(victim))

        def batch_worker():
            queries = [
                Query.range_query("facts", "a", low, low + 1_000)
                for low in range(0, 10_000, 1_000)
            ]
            try:
                while not stop.is_set():
                    results = session.execute_many(queries)
                    for query, result in zip(queries, results):
                        low, high = query.selections[0].low, query.selections[0].high
                        positions = set(result.positions.tolist())
                        full = {
                            r for r in np.flatnonzero(
                                (values >= low) & (values < high)
                            ).tolist()
                        }
                        # sanity under concurrent deletes: only ever-valid
                        # rows, all satisfying the predicate
                        assert positions <= full <= initial_visible
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        readers = [threading.Thread(target=batch_worker) for _ in range(2)]
        deleter = threading.Thread(target=delete_worker)
        for thread in readers:
            thread.start()
        deleter.start()
        deleter.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors, f"concurrent batch execution raised: {errors[0]!r}"
        # after the dust settles, results are exact again
        survivors = initial_visible - set(
            database.table("facts").tombstones.tolist()
        )
        result = session.execute(Query.range_query("facts", "a", 0, 10_000))
        expected = {r for r in survivors if 0 <= values[r] < 10_000}
        assert set(result.positions.tolist()) == expected

    def test_direct_reader_hammer(self, database, session):
        """Many ungated readers while three threads delete."""
        errors = []
        barrier = threading.Barrier(9)

        def reader():
            try:
                barrier.wait()
                for _ in range(300):
                    positions = np.arange(4_000, dtype=np.int64)
                    visible = database.visible_positions("facts", positions)
                    assert len(visible) <= 4_000
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        def deleter(offset):
            try:
                barrier.wait()
                for rowid in range(offset, offset + 300):
                    session.delete_row("facts", rowid)
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        threads += [
            threading.Thread(target=deleter, args=(offset,))
            for offset in (0, 1_000, 2_000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"tombstone read raced: {errors[0]!r}"
        assert database.visible_row_count("facts") == 4_000 - 900
