"""A cold column's first crack builds its cracker arrays from the base.

The first search of a lazy ``cracking`` column used to copy the base, write
an ``arange`` of rowids and then crack both in place, each through a
gathered temporary: its ``tracemalloc`` peak was 4.65x the column's bytes.
Built from the base, the stable grouping permutation is the rowid column
and the values are one gather of the base through it, so the peak is the
two arrays the column keeps plus the grouping's index arrays and masks.
The bound holds for a crack-in-three (two-sided range) and a crack-in-two
(one-sided range); one more column-sized temporary of any integer width
would break it, on a read-only column and on an updatable one alike.  An
updatable column copies nothing when it is installed: its arrays are built
by its first use, so ``set_indexing`` allocates next to nothing (it used to
allocate the values plus an ``arange``, over 2x the column).  No clock, in
the style of ``tests/core/test_no_stable_mergesort.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.cracking.cracked_column import CrackedColumn
from repro.engine.database import Database

ROWS = 1_000_000
DOMAIN = 10_000_000


def traced_peak(action):
    """``(what action() returned, the tracemalloc peak while it ran)``."""
    tracemalloc.start()
    try:
        result = action()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_cold_first_search(low, high, supports_updates):
    column = np.random.default_rng(31).integers(0, DOMAIN, size=ROWS)
    cracked = CrackedColumn(column, supports_updates=supports_updates)
    answer, peak = traced_peak(lambda: cracked.search(low, high))
    assert cracked.materialised and 0 < len(answer) < ROWS // 50
    assert peak < 3.0 * column.nbytes, f"{peak / column.nbytes:.3f}x the column"


BOUNDS = pytest.mark.parametrize(
    "low, high", [(5_000_000, 5_100_000), (None, 100_000)],
    ids=["two-sided", "one-sided"])


@BOUNDS
def test_a_cold_first_search_builds_no_copy_to_crack(low, high):
    check_cold_first_search(low, high, supports_updates=False)


@BOUNDS
def test_an_updatable_cold_first_search_builds_no_copy_to_crack(low, high):
    check_cold_first_search(low, high, supports_updates=True)


def test_installing_an_updatable_column_copies_nothing():
    column = np.random.default_rng(31).integers(0, DOMAIN, size=ROWS)
    database = Database()
    database.create_table("t", {"key": column})
    try:
        _, peak = traced_peak(
            lambda: database.set_indexing("t", "key", "updatable-cracking"))
        assert not database.access_path("t", "key").materialised
    finally:
        database.close()
    assert peak < 0.1 * column.nbytes, f"{peak / column.nbytes:.3f}x the column"
