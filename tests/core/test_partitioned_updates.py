"""Tests for the partitioned updatable cracked column.

The key contract: whatever the partition count, execution mode (sequential
or parallel) and merge policy, the partitioned column returns exactly the
rowid sets an unpartitioned :class:`UpdatableCrackedColumn` returns for the
same mixed insert/delete/query stream — global rowids make partitioning
invisible.  Inserts go to the best-fit partition, and the partitions stay
the ones the column was cut into.  Plus the regression test for the
gradual-policy budget bug: inserts and deletes share one ``merge_batch``
budget.
"""

import numpy as np
import pytest

from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.partitioned import (
    PartitionedCrackedColumn,
    PartitionedUpdatableCrackedColumn,
    partition_bounds,
)
from repro.core.strategies import accepted_options, create_strategy
from repro.cost.counters import CostCounters
from repro.engine.database import Database
from repro.engine.query import Query


def run_mixed_stream(reference, partitioned, base, steps=300, seed=5):
    """Drive both columns through one random stream, checking each query."""
    model = {int(i): int(v) for i, v in enumerate(base)}
    next_id = len(base)
    rng = np.random.default_rng(seed)
    for step in range(steps):
        action = int(rng.integers(0, 4))
        if action == 0:
            value = int(rng.integers(0, 1000))
            got_ref = reference.insert(value)
            got_part = partitioned.insert(value)
            assert got_ref == got_part == next_id
            model[next_id] = value
            next_id += 1
        elif action == 1 and model:
            victim = int(rng.choice(list(model)))
            reference.delete(victim)
            partitioned.delete(victim)
            del model[victim]
        else:
            low = int(rng.integers(0, 950))
            high = low + int(rng.integers(1, 100))
            expected = {r for r, v in model.items() if low <= v < high}
            assert set(reference.search(low, high).tolist()) == expected
            assert set(partitioned.search(low, high).tolist()) == expected
    reference.check_invariants()
    partitioned.check_invariants()
    assert sorted(partitioned.visible_values().tolist()) == sorted(model.values())
    assert len(partitioned) == len(model)


class TestEquivalenceWithUnpartitioned:
    @pytest.mark.parametrize("partitions", [1, 3, 8])
    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_mixed_stream_matches_unpartitioned(self, partitions, policy, parallel,
                                                rng, pooled_fan_out):
        base = rng.integers(0, 1000, size=3000).astype(np.int64)
        reference = UpdatableCrackedColumn(base, policy=policy, merge_batch=4)
        with PartitionedUpdatableCrackedColumn(
            base, partitions=partitions, parallel=parallel,
            policy=policy, merge_batch=4,
        ) as partitioned:
            run_mixed_stream(reference, partitioned, base)

    def test_parallel_does_identical_logical_work(self, rng, pooled_fan_out):
        base = rng.integers(0, 10_000, size=5000).astype(np.int64)
        costs = {}
        for parallel in (False, True):
            with PartitionedUpdatableCrackedColumn(
                base, partitions=4, parallel=parallel
            ) as column:
                counters = CostCounters()
                stream_rng = np.random.default_rng(1)
                for _ in range(40):
                    column.insert(int(stream_rng.integers(0, 10_000)))
                    low = int(stream_rng.integers(0, 9000))
                    column.search(low, low + 500, counters)
                costs[parallel] = (
                    counters.tuples_scanned, counters.tuples_moved,
                    counters.comparisons, counters.random_accesses,
                )
        assert costs[False] == costs[True]


class TestUpdateRouting:
    def test_inserts_visible_before_any_query(self, rng):
        # no partition has learned bounds yet; pending inserts must still be
        # found by the first query that covers their value
        base = rng.integers(0, 100, size=400).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=4)
        rowid = column.insert(50)
        assert rowid == len(base)
        assert rowid in column.search(40, 60).tolist()

    def test_insert_outside_all_bounds_widens_a_partition(self, rng):
        base = rng.integers(0, 100, size=400).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=4)
        column.search(0, 100)  # every partition learns its bounds
        rowid = column.insert(10_000)  # far above every known max
        assert rowid in column.search(9_000, 11_000).tolist()
        column.check_invariants()

    def test_original_rows_delete_via_row_ranges(self, rng):
        base = rng.integers(0, 100, size=400).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=4)
        for victim in (0, 99, 100, 399):  # partition edges
            value = int(base[victim])
            column.delete(victim)
            assert victim not in column.search(value, value + 1).tolist()

    def test_delete_of_pending_insert_cancels_it(self, rng):
        base = rng.integers(0, 100, size=200).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=3)
        rowid = column.insert(55)
        column.delete(rowid)
        assert column.pending_inserts == 0
        assert rowid not in column.search(0, 100).tolist()
        # deleting it again matches the unpartitioned behaviour: the rowid
        # no longer exists anywhere
        with pytest.raises(KeyError):
            column.delete(rowid)

    def test_a_pending_delete_stays_in_the_partition_that_owns_the_row(self, rng):
        base = rng.integers(0, 100, size=200).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=3)
        column.delete(150)  # a row of the last partition, [134, 200)
        assert [p.cracked._pending_delete_rowids for p in column.partitions] == [
            {}, {}, {150: int(base[150])}]

    def test_repeated_delete_is_idempotent(self, rng):
        base = rng.integers(0, 100, size=200).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=3)
        column.delete(7)
        column.delete(7)
        assert column.pending_deletes == 1

    def test_redelete_after_merge_raises_like_unpartitioned(self, rng):
        # once a pending delete has been merged the row is gone; re-deleting
        # its rowid raises KeyError from both implementations
        base = rng.integers(0, 100, size=200).astype(np.int64)
        reference = UpdatableCrackedColumn(base)
        partitioned = PartitionedUpdatableCrackedColumn(base, partitions=3)
        value = int(base[7])
        for column in (reference, partitioned):
            column.delete(7)
            column.search(value, value + 1)  # merges the delete
            with pytest.raises(KeyError):
                column.delete(7)

    def test_unknown_rowid_raises(self, rng):
        base = rng.integers(0, 100, size=200).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=3)
        with pytest.raises(KeyError):
            column.delete(10**9)
        with pytest.raises(KeyError):
            column.update(10**9, 5)

    def test_update_renumbers(self, rng):
        base = rng.integers(0, 100, size=200).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=3)
        new_rowid = column.update(10, 77)
        assert new_rowid == len(base)
        assert 10 not in column.search(0, 100).tolist()
        assert new_rowid in column.search(77, 78).tolist()

    @pytest.mark.parametrize("partitions", [None, 3])
    def test_update_is_atomic_on_type_errors(self, partitions, rng):
        # a rejected value must not tombstone the old row first
        base = rng.integers(0, 100, size=200).astype(np.int64)
        if partitions is None:
            column = UpdatableCrackedColumn(base)
        else:
            column = PartitionedUpdatableCrackedColumn(base, partitions=partitions)
        with pytest.raises(TypeError):
            column.update(10, 2.5)
        assert len(column) == len(base)
        value = int(base[10])
        assert 10 in column.search(value, value + 1).tolist()


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

    def test_drained_partition_still_receives_its_values(self):
        # a partition with 0 visible rows is falsy (``__len__``) but keeps
        # its bounds: routing by truthiness sent the insert to the sibling,
        # whose bounds then widened over the drained partition's range
        base = np.concatenate([
            np.arange(0, 100, dtype=np.int64),
            np.arange(500, 600, dtype=np.int64),
        ])
        column = PartitionedUpdatableCrackedColumn(base, partitions=2)
        column.search(0, 600)
        left, right = column.partitions
        for rowid in range(100):
            column.delete(rowid)
        column.search(0, 100)  # merges the deletes
        assert len(left) == 0 and column.partitions == (left, right)
        column.insert(50)  # inside the drained partition's bounds
        assert left.cracked.pending_inserts == 1
        assert right.cracked.pending_inserts == 0
        column.check_invariants()
        assert column.search(0, 100).size == 1

    def test_an_insert_flood_stays_in_the_partition_it_fits(self):
        # the partitions stay as cut: a flood into the leftmost partition's
        # value range grows that partition and no other
        rng = np.random.default_rng(0)
        base = rng.integers(0, 10_000, size=2_000).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(base, partitions=4)
        column.search(0, 10_000)
        low, high = column.partitions[0].effective_bounds
        for _ in range(1_500):
            column.insert(int(rng.integers(low, high)))
        assert [(p.start, p.end) for p in column.partitions] == partition_bounds(2_000, 4)
        assert [len(p) for p in column.partitions] == [2_000, 500, 500, 500]
        column.check_invariants()


class TestOptions:
    @pytest.mark.parametrize("make", [
        PartitionedCrackedColumn, PartitionedUpdatableCrackedColumn,
    ], ids=["read-only", "updatable"])
    def test_bad_construction_rejected(self, make):
        values = np.arange(100, dtype=np.int64)
        with pytest.raises(ValueError, match="partitions must be >= 1"):
            make(values, partitions=0)
        with pytest.raises(ValueError, match="one-dimensional"):
            make(values.reshape(10, 10))

    @pytest.mark.parametrize("name", [
        "partitioned-cracking", "partitioned-updatable-cracking",
    ])
    def test_the_partition_options_are_count_and_pool(self, name):
        # what a partitioned name takes beside its merge policy; an option
        # outside the row is refused before anything is built
        partition_options = [option for option in accepted_options(name)
                             if option not in ("policy", "merge_batch")]
        assert partition_options == ["partitions", "parallel", "max_workers"]
        values = np.arange(500, dtype=np.int64)
        for retired in ("repartition", "max_partition_rows", "split_threshold"):
            with pytest.raises(ValueError, match=retired):
                create_strategy(name, values, partitions=2, **{retired: 2})


def test_an_engine_insert_flood_keeps_the_partitions():
    # 1 200 inserts into the bottom tenth of the domain through a session:
    # the path keeps the four partitions it was cut into, and says so
    rng = np.random.default_rng(3)
    database = Database("partitioned-flood")
    database.create_table(
        "facts", {"key": rng.integers(0, 1_000, size=1_500).astype(np.int64)}
    )
    database.set_indexing(
        "facts", "key", "partitioned-updatable-cracking", partitions=4
    )
    path = database.access_path("facts", "key")
    with database.session() as session:
        session.execute(Query.range_query("facts", "key", 0, 1_000))
        for _ in range(1_200):
            session.insert_row("facts", {"key": int(rng.integers(0, 100))})
        hot = session.execute(Query.range_query("facts", "key", 0, 100))
    keys = database.table("facts")["key"].values
    assert sorted(hot.positions.tolist()) == np.flatnonzero(keys < 100).tolist()
    assert [(p.start, p.end) for p in path.partitions] == partition_bounds(1_500, 4)
    [record] = database.physical_design_report()
    assert record["structure"].startswith("partitioned cracking: 4 partitions (4 touched)")
    path.check_invariants()
    database.close()


def test_memory_tracker_follows_dml():
    rng = np.random.default_rng(3)
    database = Database("partitioned-memory")
    database.create_table(
        "facts", {"key": rng.integers(0, 1_000, size=1_500).astype(np.int64)}
    )
    database.set_indexing(
        "facts", "key", "partitioned-updatable-cracking", partitions=2
    )
    # nothing is built at install: no index entry until a query builds it
    path = database.access_path("facts", "key")
    assert path.nbytes == 0
    assert "index:facts.key" not in database.memory.breakdown()
    with database.session() as session:
        session.insert_row("facts", {"key": 7})
        assert database.memory.breakdown()["index:facts.key"] == path.nbytes
        session.delete_row("facts", 0)
        assert database.memory.breakdown()["index:facts.key"] == path.nbytes
        session.execute(Query.range_query("facts", "key", 0, 1_000))
        assert path.materialised
        assert database.memory.breakdown()["index:facts.key"] == path.nbytes
        assert path.nbytes >= 16 * 1_500
    database.close()


class TestGradualBudget:
    """Regression tests for the shared gradual-policy merge budget."""

    def test_inserts_and_deletes_share_one_budget(self, rng):
        # queue qualifying inserts AND deletes, then count merges of one
        # query: the buggy version merged up to merge_batch of each
        base = rng.integers(0, 100, size=500).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy="gradual", merge_batch=4)
        for value in range(10, 20):
            column.insert(value)
        column.search(0, 100)  # merges a first batch of the inserts
        merged_before = column.merges_performed
        victims = [int(r) for r in column.rowids[:10]]
        for victim in victims:
            column.delete(victim)
        column.search(0, 100)
        assert column.merges_performed - merged_before <= 4

    @pytest.mark.parametrize("merge_batch", [1, 4, 16])
    def test_budget_respected_over_random_stream(self, merge_batch, rng):
        base = rng.integers(0, 100, size=500).astype(np.int64)
        column = UpdatableCrackedColumn(
            base, policy="gradual", merge_batch=merge_batch
        )
        model = dict(enumerate(base.tolist()))
        next_id = len(base)
        for step in range(200):
            action = int(rng.integers(0, 3))
            if action == 0:
                value = int(rng.integers(0, 100))
                model[column.insert(value)] = value
                next_id += 1
            elif action == 1 and model:
                victim = int(rng.choice(list(model)))
                column.delete(victim)
                del model[victim]
            else:
                merges_before = column.merges_performed
                low = int(rng.integers(0, 95))
                got = set(column.search(low, low + 10).tolist())
                assert column.merges_performed - merges_before <= merge_batch
                assert got == {r for r, v in model.items() if low <= v < low + 10}

    def test_deletes_drain_despite_steady_insert_pressure(self, rng):
        # the shared budget is served round-robin: a stream that queues
        # more qualifying inserts than the whole budget every query must
        # not starve the pending deletes forever
        base = rng.integers(0, 100, size=400).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy="gradual", merge_batch=4)
        for victim in range(20):
            column.delete(victim)
        for _ in range(40):
            for _ in range(6):  # 6 qualifying inserts > merge_batch
                column.insert(int(rng.integers(0, 100)))
            column.search(0, 100)
        assert column.pending_deletes == 0

    def test_partitioned_budget_is_per_touched_partition(self, rng):
        base = rng.integers(0, 100, size=600).astype(np.int64)
        partitions = 3
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=partitions, policy="gradual", merge_batch=2
        )
        for value in range(0, 60):
            column.insert(value)
        merges_before = column.merges_performed
        column.search(0, 100)
        assert column.merges_performed - merges_before <= 2 * partitions


class TestPendingScanAccounting:
    """Pending-structure scans are charged whether or not anything qualifies."""

    def test_non_qualifying_pending_still_charged(self, rng):
        base = rng.integers(0, 100, size=500).astype(np.int64)
        quiet = UpdatableCrackedColumn(base)
        busy = UpdatableCrackedColumn(base)
        busy.insert(999)  # far outside the query range below
        counters_quiet, counters_busy = CostCounters(), CostCounters()
        quiet.search(0, 50, counters_quiet)
        busy.search(0, 50, counters_busy)
        # identical cracking work; the busy column pays exactly one extra
        # comparison for scanning its (non-qualifying) pending insert
        assert counters_busy.comparisons == counters_quiet.comparisons + 1
