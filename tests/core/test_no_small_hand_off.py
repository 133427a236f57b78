"""No hand-off to the pool for a sub-selection too small to pay for it.

A ``parallel=True`` partitioned column decides per query, per partition,
whether a sub-selection goes to its thread pool: only when the crack is
about to move at least ``_POOL_MIN_WORK`` elements, and only when two of
them do.  Whether that decision is taken shows without a clock, in the style
of ``tests/engine/test_no_full_column_pass.py``: the ``pool_submits`` fixture
records every ``ThreadPoolExecutor.submit``, so the tests below count
hand-offs — one per partition on the cold first query, none once the pieces
are small, and not even a pool for a column that never has a big piece.

The decision reads ``CrackedColumn.crack_work``; the last tests hold that
estimate to what the search then charges to ``tuples_moved``.
"""

import numpy as np

from repro.core import partitioned
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn
from repro.cost.counters import CostCounters

PARTITIONS = 8
#: 50 000-row slices: an untouched partition clears the bar, as e21's do
ROWS = 400_000
DOMAIN = 4_000_000
WIDTH = 4_000


def build_column(rows=ROWS, seed=28, **options):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, DOMAIN, size=rows).astype(np.int64)
    column = PartitionedCrackedColumn(
        values, partitions=PARTITIONS, parallel=True, max_workers=2, **options
    )
    return column, rng


def random_ranges(rng, count):
    lows = rng.integers(0, DOMAIN - WIDTH, size=count).tolist()
    return [(low, low + WIDTH) for low in lows]


def test_the_sizes_here_straddle_the_bar():
    assert 4_000 // PARTITIONS < partitioned._POOL_MIN_WORK <= ROWS // PARTITIONS


def test_the_first_query_hands_off_every_partition_a_late_one_none(pool_submits):
    column, rng = build_column()
    with column:
        (first, *later), probe = random_ranges(rng, 301), (DOMAIN // 3, DOMAIN // 2)
        column.search(*first)
        assert pool_submits == [p.cracked.search for p in column.partitions]
        for low, high in later:
            column.search(low, high)
        del pool_submits[:]
        assert len(column.search(*probe)) > 0  # a fresh pair of bounds: it cracks
        assert pool_submits == []
        column.check_invariants()


def test_a_small_column_never_creates_a_pool(pool_submits):
    column, rng = build_column(rows=4_000)
    for low, high in random_ranges(rng, 50):
        column.search(low, high)
    assert column._pool is None
    column.close()
    assert column._pool is None and pool_submits == []


def test_crack_work_is_what_the_search_charges_to_tuples_moved():
    column, rng = build_column()
    with column:
        readings = []
        for low, high in random_ranges(rng, 500):
            predicted = sum(p.cracked.crack_work(low, high) for p in column.partitions)
            counters = CostCounters()
            column.search(low, high, counters)
            readings.append((predicted, counters.tuples_moved))
    # the first query also pays the copy of every slice
    assert readings[0] == (ROWS, 2 * ROWS)
    assert all(predicted == charged for predicted, charged in readings[1:])
    assert readings[-1][0] < partitioned._POOL_MIN_WORK


def test_crack_work_follows_known_bounds():
    rng = np.random.default_rng(5)
    values = rng.integers(0, DOMAIN, size=20_000).astype(np.int64)
    column = CrackedColumn(values)
    assert column.crack_work(10, 20) == len(values)  # unmaterialised: the slice
    column.search(None, None)
    assert column.crack_work(None, None) == 0
    for low, high in random_ranges(rng, 400):
        for bounds in ((low, high), (low, None), (None, high), (low, low)):
            predicted = column.crack_work(*bounds)
            counters = CostCounters()
            column.search(*bounds, counters)
            assert counters.tuples_moved == predicted, bounds
            assert column.crack_work(*bounds) == 0  # both are boundaries now
    column.check_invariants()


def test_crack_work_is_zero_on_a_sorted_column():
    values = np.random.default_rng(6).permutation(64)
    column = CrackedColumn(values)
    for key in range(64):
        column.search(key, key + 1)  # every key its own piece: sorted
    assert column.converged
    assert column.crack_work(10, 20) == 0  # latched: the index is not read
