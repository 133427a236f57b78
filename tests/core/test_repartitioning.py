"""Regression tests for adaptive repartitioning and its wiring.

Covers the known skew hotspot (a leftmost-partition insert flood used to
bloat one partition without recourse), the insert-routing fix (best-fit
instead of leftmost), option validation, and the rebalance counters
surfaced through the strategies, the Database and the MemoryTracker.
"""

import numpy as np
import pytest

from repro.core.partitioned import (
    PartitionedCrackedColumn,
    PartitionedUpdatableCrackedColumn,
)
from repro.core.strategies import create_strategy
from repro.engine.database import Database
from repro.engine.query import Query


class TestSkewHotspotRegression:
    """A leftmost-partition insert flood must trigger splits, not bloat."""

    def test_leftmost_flood_stays_within_row_cap(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 10_000, size=2_000).astype(np.int64)
        cap = 800
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=4, repartition=True, max_partition_rows=cap
        )
        column.search(0, 10_000)  # every partition learns its bounds
        leftmost_low, leftmost_high = column.partitions[0].effective_bounds
        for _ in range(1_500):  # flood values owned by the leftmost partition
            column.insert(int(rng.integers(leftmost_low, leftmost_high)))
        assert column.partition_splits > 0
        assert all(len(p) <= cap for p in column.partitions)
        column.check_invariants()

    def test_fixed_partitioning_exhibits_the_hotspot(self):
        # the counterpart documenting the problem: without repartitioning
        # the same flood concentrates in one partition
        rng = np.random.default_rng(0)
        base = rng.integers(0, 10_000, size=2_000).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=4)
        column.search(0, 10_000)
        low, high = column.partitions[0].effective_bounds
        for _ in range(1_500):
            column.insert(int(rng.integers(low, high)))
        sizes = [len(p) for p in column.partitions]
        mean_rows = sum(sizes) / len(sizes)
        assert max(sizes) > 2.0 * mean_rows

    def test_flood_answers_survive_repartitioning(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 1_000, size=1_000).astype(np.int64)
        fixed = PartitionedUpdatableCrackedColumn(base, partitions=4)
        adaptive = PartitionedUpdatableCrackedColumn(
            base, partitions=4, repartition=True, max_partition_rows=400
        )
        for _ in range(800):
            value = int(rng.integers(0, 100))
            assert fixed.insert(value) == adaptive.insert(value)
            low = int(rng.integers(0, 950))
            expected = set(fixed.search(low, low + 60).tolist())
            assert set(adaptive.search(low, low + 60).tolist()) == expected

    def test_partition_loaded_with_pending_inserts_splits(self):
        # the merged values are all equal, so they alone offer no pivot; the
        # partition's load is the pending inserts, and those spread over 40
        # values — the pivot has to be chosen over both
        base = np.array([50] * 4 + [1000, 1001, 1002, 1003], dtype=np.int64)
        cap = 16
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=2, repartition=True, max_partition_rows=cap
        )
        column.search(0, 2_000)  # both partitions materialise
        for value in range(40):  # nearest bounds: the [50, 50] partition
            column.insert(value)
        assert column.partition_splits > 0
        assert all(len(p) <= cap for p in column.partitions)
        column.check_invariants()
        assert sorted(column.search(0, 2_000).tolist()) == list(range(48))
        assert sorted(column.search(10, 30).tolist()) == list(range(18, 38))

    def test_unsplittable_candidate_does_not_starve_the_others(self):
        # the largest partition holds one value 35 times (no pivot exists);
        # the second one is over the cap too and splits fine — ending the
        # pass at the first refusal left it whole forever
        base = np.concatenate([
            np.full(30, 50), np.arange(1_000, 1_030),
        ]).astype(np.int64)
        cap = 12
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=2, repartition=True, max_partition_rows=cap
        )
        column.search(0, 2_000)
        for _ in range(5):
            column.insert(50)
        column.search(0, 2_000)
        stuck, *others = column.partitions
        assert len(stuck) == 35 and stuck.effective_bounds == (50.0, 50.0)
        assert len(others) >= 3
        assert all(len(p) <= cap for p in others)
        column.check_invariants()
        assert sorted(column.search(1_000, 1_030).tolist()) == list(range(30, 60))


class TestBestFitInsertRouting:
    """Inserts route to the tightest-bounds partition, not the leftmost."""

    def test_insert_prefers_tightest_containing_partition(self):
        # partition 0 spans the whole domain (0..999 present in its slice),
        # partition 1 spans a narrow band; a value in the band must land in
        # the narrow partition even though the leftmost also contains it
        wide = np.array([0, 999, 400, 600], dtype=np.int64)
        narrow = np.array([500, 510, 505, 507], dtype=np.int64)
        base = np.concatenate([wide, narrow])
        column = PartitionedUpdatableCrackedColumn(base, partitions=2)
        column.search(0, 1_000)  # both partitions learn their bounds
        assert column.partitions[0].effective_bounds == (0.0, 999.0)
        assert column.partitions[1].effective_bounds == (500.0, 510.0)
        column.insert(505)
        assert column.partitions[0].cracked.pending_inserts == 0
        assert column.partitions[1].cracked.pending_inserts == 1

    def test_regression_leftmost_would_have_won(self):
        # pin the exact shape of the old bug: leftmost-containing wins only
        # when its bounds are at least as tight
        base = np.concatenate([
            np.array([100, 200], dtype=np.int64),   # bounds [100, 200]
            np.array([0, 1_000], dtype=np.int64),   # bounds [0, 1000]
        ])
        column = PartitionedUpdatableCrackedColumn(base, partitions=2)
        column.search(0, 2_000)
        column.insert(150)  # contained by both; leftmost is tighter here
        assert column.partitions[0].cracked.pending_inserts == 1
        column.insert(900)  # only the wide partition contains it
        assert column.partitions[1].cracked.pending_inserts == 1

    def test_value_outside_all_bounds_goes_to_nearest(self):
        base = np.concatenate([
            np.arange(0, 100, dtype=np.int64),
            np.arange(500, 600, dtype=np.int64),
        ])
        column = PartitionedUpdatableCrackedColumn(base, partitions=2)
        column.search(0, 600)
        column.insert(480)  # nearest to the [500, 599] partition
        assert column.partitions[1].cracked.pending_inserts == 1
        assert column.partitions[0].cracked.pending_inserts == 0

    def test_drained_fragment_still_receives_its_values(self):
        # a partition with 0 visible rows is falsy (``__len__``) but keeps
        # its bounds: routing by truthiness sent the insert to the sibling,
        # whose bounds then widened over the drained fragment's range
        base = np.arange(400, dtype=np.int64)
        np.random.default_rng(3).shuffle(base)
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=1, repartition=True, max_partition_rows=300
        )
        column.search(0, 400)
        column.search(100, 300)
        assert column.partition_splits == 1
        left, right = column.partitions
        for rowid in column.search(None, right.effective_bounds[0]).tolist():
            column.delete(rowid)
        assert len(left) == 0 and column.partitions == [left, right]
        column.insert(50)  # inside the drained fragment's exact bounds
        assert left.cracked.pending_inserts == 1
        assert right.cracked.pending_inserts == 0
        column.check_invariants()
        assert column.search(0, 100).size == 1


class TestOptionValidation:
    @pytest.mark.parametrize("cls", [
        PartitionedCrackedColumn, PartitionedUpdatableCrackedColumn,
    ])
    def test_bad_split_threshold_rejected(self, cls):
        values = np.arange(100, dtype=np.int64)
        with pytest.raises(ValueError):
            cls(values, repartition=True, split_threshold=1.0)
        with pytest.raises(ValueError):
            cls(values, max_partition_rows=0)

    @pytest.mark.parametrize("name", [
        "partitioned-cracking", "partitioned-updatable-cracking",
    ])
    def test_strategy_options_forwarded(self, name):
        values = np.arange(500, dtype=np.int64)
        strategy = create_strategy(
            name, values, partitions=2, repartition=True,
            max_partition_rows=100, split_threshold=3.0,
        )
        assert strategy.repartition is True
        assert strategy.max_partition_rows == 100
        assert strategy.split_threshold == 3.0
        assert strategy.partition_splits == 0
        assert strategy.partition_merges == 0


class TestRebalanceSurfacing:
    """Split/merge counters reach strategies, Database and MemoryTracker."""

    def make_database(self, rows=1_500):
        rng = np.random.default_rng(3)
        database = Database("repartition-test")
        database.create_table(
            "facts", {"key": rng.integers(0, 1_000, size=rows).astype(np.int64)}
        )
        return database, rng

    def test_rebalance_stats_reports_partitioned_paths(self):
        database, rng = self.make_database()
        database.set_indexing(
            "facts", "key", "partitioned-updatable-cracking",
            partitions=4, repartition=True, max_partition_rows=600,
        )
        with database.session() as session:
            session.execute(Query.range_query("facts", "key", 0, 1_000))
            for _ in range(1_200):
                session.insert_row("facts", {"key": int(rng.integers(0, 100))})
        stats = database.rebalance_stats()
        assert len(stats) == 1
        record = stats[0]
        assert record["mode"] == "partitioned-updatable-cracking"
        assert record["repartition"] is True
        assert record["splits"] > 0
        assert record["max_rows"] <= 600
        assert record["partitions"] > 4

    def test_structure_description_mentions_splits(self):
        database, rng = self.make_database()
        database.set_indexing(
            "facts", "key", "partitioned-updatable-cracking",
            partitions=2, repartition=True, max_partition_rows=800,
        )
        with database.session() as session:
            for _ in range(800):
                session.insert_row("facts", {"key": int(rng.integers(0, 50))})
        report = database.physical_design_report()
        assert any("splits" in r["structure"] for r in report)

    def test_memory_tracker_follows_dml(self):
        database, rng = self.make_database()
        database.set_indexing(
            "facts", "key", "partitioned-updatable-cracking", partitions=2
        )
        # the eager copy is held from the moment the path is installed
        path = database.access_path("facts", "key")
        assert database.memory.breakdown()["index:facts.key"] == path.nbytes
        with database.session() as session:
            session.insert_row("facts", {"key": 7})
            assert database.memory.breakdown()["index:facts.key"] == path.nbytes
            session.delete_row("facts", 0)
            assert database.memory.breakdown()["index:facts.key"] == path.nbytes

    def test_non_partitioned_paths_not_reported(self):
        database, _ = self.make_database(rows=100)
        database.set_indexing("facts", "key", "cracking")
        assert database.rebalance_stats() == []
