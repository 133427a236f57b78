"""Regression tests pinning the races surfaced by reprolint's first run.

Each test here guards one fix made when ``reprolint`` first ran over the
tree (see ``docs/CONCURRENCY.md``).  The static pins — "the bad pattern
lints dirty, the fixed tree lints clean" — live in
``tests/analysis_tools``; these tests pin the *runtime* behaviour.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.engine.database import Database
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn
from repro.core.strategies import create_strategy


@pytest.fixture
def database(rng):
    db = Database("lint-regressions")
    db.create_table(
        "facts",
        {"a": rng.integers(0, 10_000, size=2_000).astype(np.int64)},
    )
    return db


class TestTombstonesDieWithTheirTable:
    """Dropping and recreating a table can never leak old tombstones.

    The race this pins: a reader mid-read on the old table while the table
    is dropped and recreated.  When the database kept tombstones per table
    name, a reader could publish the old table's deleted positions for the
    new, tombstone-free table and hide its rows.  The tombstones now live
    on the :class:`Table`, so the old reader only ever sees the old array.
    """

    def test_reader_on_dropped_table_never_hides_recreated_rows(
        self, database, session, rng
    ):
        session.delete_row("facts", 7)
        session.delete_row("facts", 11)
        taken = threading.Event()
        proceed = threading.Event()
        results = {}

        def reader():
            table = database.table("facts")
            tombstones = table.tombstones
            taken.set()
            assert proceed.wait(timeout=10.0)
            results["tombstones"] = tombstones.tolist()
            results["visible"] = len(
                table.visible_positions(np.arange(2_000, dtype=np.int64))
            )

        worker = threading.Thread(target=reader)
        worker.start()
        assert taken.wait(timeout=10.0)
        # the reader holds the old table's array: drop and recreate
        database.drop_table("facts")
        database.create_table(
            "facts",
            {"a": rng.integers(0, 10_000, size=500).astype(np.int64)},
        )
        proceed.set()
        worker.join(timeout=10.0)
        assert not worker.is_alive()

        # the old reader finished on a consistent view of the old table
        assert results == {"tombstones": [7, 11], "visible": 1_998}
        # the recreated table must see every one of its rows
        assert len(database.table("facts").tombstones) == 0
        positions = np.arange(500, dtype=np.int64)
        visible = database.visible_positions("facts", positions)
        assert len(visible) == 500


class TestConcurrentDeleteAndTombstoneReads:
    """Ungated readers racing DML deletes see a consistent array."""

    def test_reader_hammer_during_deletes(self, database, session):
        stop = threading.Event()
        errors = []
        table = database.table("facts")

        def reader():
            positions = np.arange(2_000, dtype=np.int64)
            while not stop.is_set():
                try:
                    # deletes only accumulate, so the visible count must sit
                    # between the tombstone counts sampled around the read
                    before = table.tombstones
                    visible = database.visible_positions("facts", positions)
                    after = table.tombstones
                    assert 2_000 - len(after) <= len(visible) <= 2_000 - len(before)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        # switch threads often so reads interleave with each publication
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            for rowid in range(0, 600, 3):
                session.delete_row("facts", rowid)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors
        assert table.tombstones.tolist() == list(range(0, 600, 3))
        # a published array is never written to
        assert not table.tombstones.flags.writeable


class TestReorganizesOnReadDeclarations:
    """Updatable strategies must *declare* that their reads reorganize.

    Batch scheduling gives shared claims to strategies whose reads do not
    reorganize; an updatable strategy silently inheriting a default
    would be one refactor away from data races, so the flag must be an
    explicit declaration on the structure's class (the access-path
    protocol gives it no default), and the updatable names must answer
    True even when the column itself has converged.
    """

    def test_flag_declared_on_the_class_itself(self):
        for cls in (CrackedColumn, PartitionedCrackedColumn):
            assert "reorganizes_on_read" in cls.__dict__

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_a_converged_partitioned_column_stops_reorganizing(self, partitions):
        # read-only: once every partition is sorted a read moves nothing
        strategy = create_strategy("partitioned-cracking", np.arange(64, dtype=np.int64),
                                   partitions=partitions)
        assert strategy.reorganizes_on_read is True
        for low in range(64):
            strategy.search(low, low + 1)
        assert strategy.converged
        assert strategy.reorganizes_on_read is False

    def test_updatable_names_always_reorganize(self):
        strategy = create_strategy("updatable-cracking", np.arange(64, dtype=np.int64))
        for low in range(64):
            strategy.search(low, low + 1)
        assert strategy.converged
        assert strategy.reorganizes_on_read is True
