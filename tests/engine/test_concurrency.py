"""Tests for per-access-path batch concurrency (repro.engine.concurrency).

Covers the classification of access paths as read-only vs mutating under
selection (the ``reorganizes_on_read`` capability flag), the batch
scheduler's task decomposition, the lock manager, ``execute_many``
argument validation, and tombstone reads racing a delete stream.
"""

import threading

import numpy as np
import pytest

from repro.engine.concurrency import (
    AccessPathLockManager,
    classify_plan,
    reorganizes_on_read,
    schedule_batch,
)
from repro.engine.database import Database
from repro.engine.query import Query, RangeSelection


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
         "updatable-cracking", "partitioned-updatable-cracking",
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
        # a generous sort threshold makes the cracker column converge fast
        database.set_indexing(
            "facts", "a", "cracking", sort_threshold=10_000
        )
        session.execute(Query.range_query("facts", "a", 2_000, 8_000))
        path = database.access_path("facts", "a")
        assert path.cracked.is_fully_sorted()
        assert reorganizes_on_read(database, "facts", "a") is False
        # converged answers keep matching the reference and stay pure
        pieces_before = path.cracked.piece_count
        result = session.execute(Query.range_query("facts", "a", 1_000, 3_000))
        assert set(result.positions.tolist()) == reference_positions(
            database, 1_000, 3_000
        )
        assert path.cracked.piece_count == pieces_before

    def test_adaptive_merging_becomes_read_only_when_fully_merged(self, database, session):
        database.set_indexing("facts", "a", "adaptive-merging")
        session.execute(Query.range_query("facts", "a", None, None))
        path = database.access_path("facts", "a")
        assert path.index.fully_merged
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
    def test_scan_queries_fan_out_as_singletons(self, database):
        queries = [
            Query.range_query("facts", "a", low, low + 500)
            for low in range(0, 4_000, 500)
        ]
        plans = [database.plan(q) for q in queries]
        schedule = schedule_batch(database, plans)
        assert schedule.read_only_queries == len(queries)
        assert schedule.exclusive_groups == 0
        assert [task for task in schedule.tasks] == [[i] for i in range(len(queries))]

    def test_mutating_queries_group_in_submission_order(self, database):
        database.set_indexing("facts", "a", "cracking")
        queries = [
            Query.range_query("facts", "a", low, low + 500)
            for low in range(0, 4_000, 500)
        ]
        schedule = schedule_batch(database, [database.plan(q) for q in queries])
        assert schedule.exclusive_groups == 1
        assert schedule.tasks == [list(range(len(queries)))]

    def test_mixed_same_table_batch_splits_by_access_path(self, database):
        # cracking on "a" serializes; scans on "b" fan out — same table
        database.set_indexing("facts", "a", "cracking")
        queries = [
            Query.range_query("facts", "a", 0, 500),
            Query.range_query("facts", "b", 0, 100),
            Query.range_query("facts", "a", 500, 900),
            Query.range_query("facts", "b", 100, 300),
        ]
        schedule = schedule_batch(database, [database.plan(q) for q in queries])
        assert schedule.exclusive_groups == 1
        assert schedule.read_only_queries == 2
        assert [0, 2] in schedule.tasks  # cracking queries, submission order
        assert [1] in schedule.tasks and [3] in schedule.tasks

    def test_sideways_queries_claim_exclusively(self, database):
        database.set_indexing("facts", "a", "sideways-cracking")
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 1_000)],
            projections=["c"],
        )
        claims = classify_plan(database, database.plan(query))
        assert [(c.key, c.exclusive) for c in claims] == [
            (("path", "facts", "a"), True)
        ]

    def test_refine_steps_claim_nothing(self, database):
        database.set_indexing("facts", "a", "cracking")
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 5_000), RangeSelection("b", 0, 500)],
        )
        claims = classify_plan(database, database.plan(query))
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
        schedule = schedule_batch(database, [database.plan(q) for q in queries])
        manager = AccessPathLockManager()
        with manager.locked(schedule.claims[0]):
            assert manager.lock_for(("path", "facts", "a")).locked()
            assert not manager.lock_for(("path", "facts", "b")).locked()
        assert not manager.lock_for(("path", "facts", "a")).locked()
        with manager.locked(schedule.claims[1]):  # read-only: no lock taken
            assert not manager.lock_for(("path", "facts", "b")).locked()


class TestExecuteManyValidation:
    @pytest.mark.parametrize("workers", [0, -1, -7])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_non_positive_max_workers_rejected(self, database, session, workers, parallel):
        queries = [Query.range_query("facts", "a", 0, 100)] * 3
        with pytest.raises(ValueError, match="max_workers"):
            session.execute_many(queries, parallel=parallel, max_workers=workers)

    def test_empty_batch_still_reports(self, database, session):
        assert session.execute_many([], parallel=True) == []
        assert session.stats().last_batch_report.query_count == 0


class TestBatchFanOut:
    def test_read_only_same_table_batch_fans_out(self, database, session):
        database.set_indexing("facts", "b", "full-index")
        queries = []
        for low in range(0, 4_000, 400):
            queries.append(Query.range_query("facts", "a", low, low + 400))
            queries.append(
                Query.range_query("facts", "b", low // 10, low // 10 + 50)
            )
        results = session.execute_many(queries, parallel=True, max_workers=4)
        report = session.stats().last_batch_report
        assert report.read_only_queries == len(queries)
        assert report.task_count == len(queries)
        assert report.parallel is True
        for query, result in zip(queries, results):
            selection = query.selections[0]
            assert set(result.positions.tolist()) == reference_positions(
                database, selection.low, selection.high, column=selection.column
            )
            assert result.worker  # every result is stamped with its worker

    def test_mutating_path_does_not_block_other_columns(self, database, session):
        database.set_indexing("facts", "a", "cracking")
        queries = [
            Query.range_query("facts", "a", 0, 2_000),
            Query.range_query("facts", "b", 0, 500),
            Query.range_query("facts", "c", 0.0, 50.0),
            Query.range_query("facts", "a", 2_000, 4_000),
        ]
        results = session.execute_many(queries, parallel=True, max_workers=3)
        report = session.stats().last_batch_report
        # three independent tasks: the two cracking queries share one
        assert report.task_count == 3
        assert report.exclusive_groups == 1
        assert report.read_only_queries == 2
        for query, result in zip(queries, results):
            selection = query.selections[0]
            assert set(result.positions.tolist()) == reference_positions(
                database, selection.low, selection.high, column=selection.column
            )

    def test_sequential_and_parallel_agree_after_convergence(self, database, session):
        # converge the cracked column (the generous sort threshold sorts
        # the whole piece on the first crack), then fan a batch out over it
        database.set_indexing("facts", "a", "cracking", sort_threshold=10_000)
        session.execute(Query.range_query("facts", "a", 0, 20_000))
        assert database.access_path("facts", "a").cracked.is_fully_sorted()
        queries = [
            Query.range_query("facts", "a", low, low + 700)
            for low in range(0, 7_000, 700)
        ]
        sequential = session.execute_many(queries, parallel=False)
        parallel = session.execute_many(queries, parallel=True, max_workers=4)
        report = session.stats().last_batch_report
        assert report.read_only_queries == len(queries)
        for left, right in zip(sequential, parallel):
            assert np.array_equal(left.positions, right.positions)
            assert left.counters == right.counters

    def test_query_counter_survives_concurrent_readers(self, database, session):
        # sort-first is read-only once built, and (unlike the managed
        # full-index mode) its strategy object carries a query counter
        database.set_indexing("facts", "a", "sort-first")
        session.execute(Query.range_query("facts", "a", 0, 100))
        path = database.access_path("facts", "a")
        assert path.reorganizes_on_read is False
        queries = [
            Query.range_query("facts", "a", low, low + 50)
            for low in range(0, 4_000, 50)
        ]
        before = path.queries_processed
        session.execute_many(queries, parallel=True, max_workers=8)
        assert path.queries_processed == before + len(queries)


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
                    results = session.execute_many(
                        queries, parallel=True, max_workers=4
                    )
                    for query, result in zip(queries, results):
                        low, high = query.selections[0].bounds
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
