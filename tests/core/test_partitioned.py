"""Unit tests for the partitioned parallel cracking subsystem."""

import threading
import time
from contextlib import closing

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn, partition_bounds
from repro.core.strategies import accepted_options, available_strategies, create_strategy
from repro.cost.counters import CostCounters
from repro.engine.database import Database
from repro.engine.query import Query


def reference(values, low, high):
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= values >= low
    if high is not None:
        mask &= values < high
    return set(np.flatnonzero(mask).tolist())


class TestPartitionBounds:
    def test_even_split(self):
        assert partition_bounds(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_remainder_spread_over_first_shards(self):
        bounds = partition_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        sizes = [end - start for start, end in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_partitions_clamped_to_size(self):
        assert partition_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_column_single_partition(self):
        assert partition_bounds(0, 4) == [(0, 0)]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_bounds(10, 0)


class TestPartitionedCrackedColumn:
    def test_search_matches_reference(self, rng):
        values = rng.integers(0, 1000, size=2000).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=4)
        for _ in range(30):
            low = int(rng.integers(0, 900))
            positions = column.search(low, low + 100)
            assert set(positions.tolist()) == reference(values, low, low + 100)
        column.check_invariants()

    def test_matches_whole_column_cracking(self, rng):
        values = rng.integers(0, 1000, size=1500).astype(np.int64)
        whole = CrackedColumn(values)
        partitioned = PartitionedCrackedColumn(values, partitions=5)
        for _ in range(25):
            low = int(rng.integers(0, 950))
            expected = whole.search(low, low + 50)
            actual = partitioned.search(low, low + 50)
            assert np.array_equal(np.sort(actual), np.sort(expected))

    def test_unbounded_queries(self, rng):
        values = rng.integers(0, 100, size=500).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=3)
        assert set(column.search(None, None).tolist()) == set(range(500))
        assert set(column.search(None, 50).tolist()) == reference(values, None, 50)
        assert set(column.search(50, None).tolist()) == reference(values, 50, None)
        column.check_invariants()

    def test_empty_column(self):
        column = PartitionedCrackedColumn(np.array([], dtype=np.int64), partitions=4)
        assert column.partition_count == 1
        assert len(column.search(0, 10)) == 0
        column.check_invariants()

    def test_accepts_column_objects(self, rng):
        values = rng.integers(0, 100, size=200).astype(np.int64)
        column = PartitionedCrackedColumn(Column(values, name="k"), partitions=2)
        assert column.name == "k"
        assert set(column.search(10, 40).tolist()) == reference(values, 10, 40)

    def test_partition_count_clamped(self):
        column = PartitionedCrackedColumn(np.arange(3, dtype=np.int64), partitions=10)
        assert column.partition_count == 3

    def test_queries_processed_counts_every_search(self, rng):
        values = rng.integers(0, 100, size=300).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=3)
        column.search(0, 10)
        column.search(10, 20)
        column.search(20, 30)
        assert column.queries_processed == 3

    def test_value_pruning_skips_cold_partitions(self):
        # clustered data: each positional shard owns a distinct value range,
        # so a narrow query materialises only the shard it falls into
        values = np.arange(1000, dtype=np.int64)
        column = PartitionedCrackedColumn(values, partitions=4)
        column.search(10, 20)
        first_shard = CrackedColumn(values[:250])
        first_shard.search(10, 20)
        assert column.nbytes == first_shard.nbytes > 0
        column.check_invariants()

    def test_pruned_partition_costs_no_movement(self):
        values = np.arange(1000, dtype=np.int64)
        column = PartitionedCrackedColumn(values, partitions=4)
        column.search(10, 20, CostCounters())
        counters = CostCounters()
        # second query in the same shard: the other shards' bounds are
        # already known, so only the hot shard is touched
        column.search(30, 40, counters)
        assert counters.tuples_scanned <= 2 * 250 + 20
        column.check_invariants()

    def test_parallel_answers_match_sequential(self, rng, pooled_fan_out):
        values = rng.integers(0, 1000, size=2000).astype(np.int64)
        sequential = PartitionedCrackedColumn(values, partitions=8, parallel=False)
        with closing(PartitionedCrackedColumn(values, partitions=8, parallel=True)) as parallel:
            for _ in range(20):
                low = int(rng.integers(0, 900))
                expected = sequential.search(low, low + 100)
                actual = parallel.search(low, low + 100)
                assert np.array_equal(np.sort(actual), np.sort(expected))
            parallel.check_invariants()
        sequential.check_invariants()

    def test_parallel_counters_match_sequential(self, rng, pooled_fan_out):
        values = rng.integers(0, 1000, size=2000).astype(np.int64)
        sequential = PartitionedCrackedColumn(values, partitions=4, parallel=False)
        with closing(PartitionedCrackedColumn(values, partitions=4, parallel=True)) as parallel:
            seq_counters = CostCounters()
            par_counters = CostCounters()
            for low in (100, 400, 700, 250):
                sequential.search(low, low + 80, seq_counters)
                parallel.search(low, low + 80, par_counters)
            assert par_counters == seq_counters

    def test_mixed_dispatch_matches_sequential(self, rng, monkeypatch,
                                               pool_submits):
        # shard i holds the keys [500 i, 500 i + 500): two warm-up queries
        # crack shards 0 and 1 only, so the wide query finds them in pieces
        # of 100 and 300 rows (400 to move, under the bar: inline) and shards
        # 2 and 3 untouched (500 each, over it: pooled)
        monkeypatch.setattr("repro.core.partitioned._POOL_MIN_WORK", 450)
        values = np.concatenate(
            [500 * shard + rng.permutation(500) for shard in range(4)]
        ).astype(np.int64)
        sequential = PartitionedCrackedColumn(values, partitions=4, parallel=False)
        with closing(PartitionedCrackedColumn(values, partitions=4, parallel=True)) as mixed:
            seq_counters, mixed_counters = CostCounters(), CostCounters()
            for low, high in ((100, 200), (600, 700)):
                sequential.search(low, high, seq_counters)
                mixed.search(low, high, mixed_counters)
            assert mixed._pool is None and pool_submits == []
            work = [p.cracked.crack_work(150, 1900) for p in mixed._partitions]
            assert work == [400, 400, 500, 500]
            expected = sequential.search(150, 1900, seq_counters)
            actual = mixed.search(150, 1900, mixed_counters)
            assert pool_submits == [p.cracked.search_many for p in mixed._partitions[2:]]
            # rowids in partition order, whoever ran the partition
            assert np.array_equal(actual, expected)
            assert set(actual.tolist()) == reference(values, 150, 1900)
            assert mixed_counters == seq_counters
            mixed.check_invariants()

    def test_nbytes_and_pieces_aggregate_partitions(self, rng):
        values = rng.integers(0, 1000, size=1000).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=4)
        assert column.nbytes == 0  # lazy: nothing materialised yet
        column.search(200, 800)
        assert column.nbytes > 0
        assert column.piece_count >= column.partition_count

    def test_is_fully_sorted_after_exhaustive_cracking(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 50, size=300).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=3)
        for low in range(0, 50):
            column.search(low, low + 1)
        column.check_invariants()
        assert column.is_fully_sorted()

    def test_not_fully_sorted_while_partitions_remain_cold(self):
        # matching the CrackedColumn contract: unmaterialised state is not
        # "sorted", so cold (pruned) partitions keep the answer False
        values = np.arange(1000, dtype=np.int64)
        column = PartitionedCrackedColumn(values, partitions=4)
        for low in range(0, 250, 10):
            column.search(low, low + 10)
        assert not column.is_fully_sorted()

    def test_structure_description(self, rng):
        values = rng.integers(0, 1000, size=400).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=4)
        column.search(0, 1000)
        description = column.structure_description
        assert "4 partitions" in description

    @pytest.mark.parametrize("partitions", [None, 1, 4])
    def test_an_inverted_range_raises_before_anything_is_touched(self, partitions):
        """As on the whole column: pruning must not turn ``high < low`` into
        an empty answer, and a batch checks every range before it cracks."""
        values = np.arange(100, dtype=np.int64)
        column = (CrackedColumn(values) if partitions is None
                  else PartitionedCrackedColumn(values, partitions=partitions))
        with pytest.raises(ValueError, match="empty range"):
            column.search(50, 40)
        with pytest.raises(ValueError, match="empty range"):
            column.search_many([(10, 20), (50, 40)], [None, None])
        assert column.queries_processed == 0
        assert column.nbytes == 0  # nothing was materialised


def _swap_base_rows(column):
    left, right = column._partitions[0].cracked, column._partitions[1].cracked
    position = int(np.flatnonzero(left.rowids < 10)[0])
    left.rowids[position], right.rowids[0] = right.rowids[0], left.rowids[position]


def _shrink_first_partition(column):
    column._partitions[0].end -= 1


def _shift_a_shard_value(column):
    column._partitions[1].cracked.values[0] += 100


def _duplicate_a_row(column):
    left = column._partitions[0].cracked
    left.rowids[0], left.values[0] = left.rowids[1], left.values[1]


class TestInvariantCheck:
    """``check_invariants`` is the oracle the property suites lean on: each
    corruption below must fail it, and say which rule it broke."""

    @pytest.mark.parametrize("corrupt, message", [
        (_shift_a_shard_value, "misaligned with the base column"),
        (_swap_base_rows, "outside the column's base row range"),
        (_shrink_first_partition, "not the contiguous cut"),
        (_duplicate_a_row, "rowids contain duplicates"),
    ], ids=["shard-value", "foreign-row", "recut", "duplicate-row"])
    def test_a_corruption_fails_the_check(self, corrupt, message):
        column = PartitionedCrackedColumn(
            np.arange(40, dtype=np.int64), partitions=4)
        column.search(5, 35)  # every partition is built and cracked
        assert all(p.cracked.materialised for p in column._partitions)
        column.check_invariants()
        corrupt(column)
        with pytest.raises(AssertionError, match=message):
            column.check_invariants()


@pytest.mark.usefixtures("pooled_fan_out")
class TestSequentialThreadEquivalence:
    """Answers match the whole-column oracle whatever the fan-out; counters
    match between the sequential run and the thread fan-out (the partitioned
    physical work legitimately differs from unpartitioned)."""

    QUERIES = [(100, 300), (50, 150), (400, 900), (120, 130)]

    @pytest.fixture
    def values(self, rng):
        return rng.integers(0, 1000, size=400).astype(np.int64)

    def test_read_only_matches_whole_column(self, values):
        per_mode = {}
        for parallel in (False, True):
            whole = CrackedColumn(values)
            counters = CostCounters()
            with closing(PartitionedCrackedColumn(
                values, partitions=4, parallel=parallel
            )) as column:
                for low, high in self.QUERIES:
                    expected = whole.search(low, high)
                    actual = column.search(low, high, counters)
                    assert np.array_equal(np.sort(actual), np.sort(expected))
                column.check_invariants()
            per_mode[parallel] = counters
        assert per_mode[True] == per_mode[False]


@pytest.mark.usefixtures("pooled_fan_out")
class TestFanOutPoolSizing:
    """The pool's width is fixed when the column is built."""

    def test_explicit_max_workers_is_respected(self, rng):
        values = rng.integers(0, 1000, size=300).astype(np.int64)
        column = PartitionedCrackedColumn(
            values, partitions=8, parallel=True, max_workers=3,
        )
        for _ in range(3):
            low = int(rng.integers(0, 900))
            column.search(low, low + 100)
        # an explicit cap holds below the partition count, on the live pool
        assert column._max_workers == 3
        assert column._pool is not None and column._pool._max_workers == 3
        column.close()


@pytest.mark.usefixtures("pooled_fan_out")
class TestFailedSubSelection:
    """A sub-selection that raises reaches the caller only once every other
    one has finished, the first failure in partition order first."""

    def two_partitions(self):
        return PartitionedCrackedColumn(np.arange(1000, dtype=np.int64),
                                        partitions=2, parallel=True, max_workers=2)

    def test_the_other_sub_selections_finish_before_it_raises(self):
        """Regression: the column re-raised while another partition was still
        cracking on the pool, so a session released the path lock with a
        worker still moving that partition's data."""
        with closing(self.two_partitions()) as column:
            first, second = (partition.cracked for partition in column._partitions)
            started, finished = threading.Event(), []
            select = second._select

            def failing(low, high, counters):
                started.wait(5)
                raise RuntimeError("sub-selection failed")

            def slow(low, high, counters):
                started.set()
                time.sleep(0.1)
                region = select(low, high, counters)
                finished.append(True)
                return region

            first._select, second._select = failing, slow
            with pytest.raises(RuntimeError, match="sub-selection failed"):
                column.search(0, 1000)
            assert finished == [True]
            column.check_invariants()

    def test_the_first_failure_in_partition_order_is_raised(self):
        with closing(self.two_partitions()) as column:
            first, second = (partition.cracked for partition in column._partitions)
            raised = threading.Event()

            def late(low, high, counters):
                raised.wait(5)
                raise RuntimeError("first partition")

            def early(low, high, counters):
                raised.set()
                raise RuntimeError("second partition")

            first._select, second._select = late, early
            with pytest.raises(RuntimeError, match="first partition"):
                column.search(0, 1000)


class TestFinalizer:
    def test_a_collected_column_releases_its_pool_without_joining(
            self, rng, pooled_fan_out):
        """Regression: a tier-1 run hung for good with a new pool thread
        stuck in ``_bootstrap_inner`` — the collector ran this finalizer
        there, under ``threading._shutdown_locks_lock``; it joined the
        workers, and ``Thread.join`` takes that (non-reentrant) lock."""
        values = rng.integers(0, 1000, size=300).astype(np.int64)
        column = PartitionedCrackedColumn(values, partitions=3, parallel=True)
        column.search(0, 1000)
        pool = column._pool
        workers = list(pool._threads)
        assert workers
        waits = []
        shutdown = pool.shutdown
        pool.shutdown = lambda wait=True: (waits.append(wait), shutdown(wait=wait))
        column.__del__()
        assert waits == [False]
        for worker in workers:  # released all the same, just not waited for
            worker.join(timeout=5)
            assert not worker.is_alive()
        column.__del__()  # and harmless twice
        PartitionedCrackedColumn.__del__(object.__new__(PartitionedCrackedColumn))


class TestPartitionedCrackingStrategy:
    def test_registered(self):
        assert "partitioned-cracking" in available_strategies()

    def test_search_matches_reference_search(self, rng):
        values = rng.integers(0, 1000, size=1200).astype(np.int64)
        strategy = create_strategy("partitioned-cracking", values, partitions=4)
        for _ in range(15):
            low = int(rng.integers(0, 900))
            got = strategy.search(low, low + 75)
            assert sorted(got.tolist()) == sorted(reference(values, low, low + 75))
        assert strategy.queries_processed == 15
        assert strategy.nbytes > 0
        assert "partitions" in strategy.structure_description

    def test_options_forwarded(self, rng):
        values = rng.integers(0, 1000, size=600).astype(np.int64)
        strategy = create_strategy(
            "partitioned-cracking", values, partitions=6,
            parallel=True, max_workers=3,
        )
        assert strategy.partition_count == 6
        assert strategy.parallel is True
        assert strategy._max_workers == 3
        expected = reference(values, 100, 200)
        assert set(strategy.search(100, 200).tolist()) == expected
        strategy.close()


class TestOptions:
    def test_bad_construction_rejected(self):
        values = np.arange(100, dtype=np.int64)
        with pytest.raises(ValueError, match="partitions must be >= 1"):
            PartitionedCrackedColumn(values, partitions=0)
        with pytest.raises(ValueError, match="one-dimensional"):
            PartitionedCrackedColumn(values.reshape(10, 10))

    def test_the_partition_options_are_count_and_pool(self):
        # what the partitioned name takes; an option outside the row (a
        # retired partitioning knob, a merge policy) is refused before
        # anything is built
        assert accepted_options("partitioned-cracking") == (
            "partitions", "parallel", "max_workers")
        values = np.arange(500, dtype=np.int64)
        for retired in ("repartition", "max_partition_rows", "split_threshold",
                        "policy", "merge_batch"):
            with pytest.raises(ValueError, match=retired):
                create_strategy("partitioned-cracking", values, partitions=2,
                                **{retired: 2})


@pytest.mark.parametrize("parallel", [False, True])
def test_a_session_rebuilds_the_read_only_column_after_dml(parallel, pooled_fan_out):
    """A partitioned column takes no DML: an insert through a session
    replaces it with one cut over the grown column, under the same options
    (the old pool released), and a delete is filtered against the table's
    tombstones."""
    values = np.arange(400, dtype=np.int64) % 97
    database = Database("read-only-partitions")
    database.create_table("t", {"k": values})
    database.set_indexing("t", "k", "partitioned-cracking", partitions=3,
                          parallel=parallel)
    before = database.access_path("t", "k")
    assert not before.supports_updates and not hasattr(before, "insert")
    with database.session() as session:
        session.execute(Query.range_query("t", "k", 10, 50))
        rowid = session.insert_row("t", {"k": 20})
        after = database.access_path("t", "k")
        assert after is not before and before._pool is None
        assert (after.partition_count, after.parallel, len(after)) == (3, parallel, 401)
        session.delete_row("t", 5)
        got = session.execute(Query.range_query("t", "k", 0, 97)).positions
    assert sorted(got.tolist()) == [row for row in range(401) if row != 5]
    assert rowid == 400
    after.check_invariants()
    database.close()
