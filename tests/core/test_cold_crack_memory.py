"""A cold column's first crack builds its cracker arrays from the base.

The first search of a lazy ``cracking`` column used to copy the base, write
an ``arange`` of rowids and then crack both in place, each through a
gathered temporary: its ``tracemalloc`` peak was 4.65x the column's bytes.
Built from the base, the stable grouping permutation is the rowid column
and the values are one gather of the base through it, so the peak is the
two arrays the column keeps plus the grouping's index arrays and masks.
The bound holds for a crack-in-three (two-sided range) and a crack-in-two
(one-sided range); one more column-sized temporary of any integer width
would break it.  No clock, in the style of
``tests/core/test_no_stable_mergesort.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.cracking.cracked_column import CrackedColumn

ROWS = 1_000_000
DOMAIN = 10_000_000


@pytest.mark.parametrize("low, high", [(5_000_000, 5_100_000), (None, 100_000)],
                         ids=["two-sided", "one-sided"])
def test_a_cold_first_search_builds_no_copy_to_crack(low, high):
    column = np.random.default_rng(31).integers(0, DOMAIN, size=ROWS)
    cracked = CrackedColumn(column)
    tracemalloc.start()
    try:
        answer = cracked.search(low, high)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cracked.materialised and 0 < len(answer) < ROWS // 50
    assert peak < 3.0 * column.nbytes, f"{peak / column.nbytes:.3f}x the column"
