"""Run generation and full-index builds sort integer keys without a stable
mergesort over the column.

``repro.columnstore.bulk.stable_sort_rows`` sorts integer keys as packed
(value, position) words with numpy's default sort and keeps
``np.argsort(kind="stable")`` for everything else.  Which branch ran shows
without a clock, in the style of ``tests/engine/test_no_full_column_pass.py``:
``np.argsort`` is patched to record the size of every stable call, so the
tests below check that the first query of adaptive merging and a full-index
build over an int64 column make none over a column-sized input, that a
float64 column still does (the fallback is live), and that the branch
switches exactly where the key span stops fitting the word.  ``tracemalloc``
bounds what run generation allocates: its two arrays, and no third one.
"""

import tracemalloc

import numpy as np
import pytest

from repro.columnstore.bulk import stable_sort_rows
from repro.core.merging.runs import RunSet
from repro.engine.database import Database
from repro.engine.query import Query
from repro.indexes.full_index import FullIndex

ROWS = 200_000
DOMAIN = 2_000_000
#: anything this large is a sort over (a sizeable share of) the column
COLUMN_SIZED = ROWS // 100


@pytest.fixture
def stable_argsorts(monkeypatch):
    """Sizes of the inputs of every ``np.argsort(..., kind="stable")`` call."""
    sizes = []
    argsort = np.argsort

    def recording(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    return sizes


def keys(dtype=np.int64, seed=29):
    rng = np.random.default_rng(seed)
    return rng.integers(0, DOMAIN, size=ROWS).astype(dtype)


def first_merging_query(column):
    database = Database("no-stable-mergesort")
    database.create_table("t", {"key": column})
    database.set_indexing("t", "key", "adaptive-merging")
    with database.session() as session:
        session.execute(Query.range_query("t", "key", 1_000.0, 3_000.0))
    assert database.access_path("t", "key").run_count > 1
    database.close()


def test_an_int64_column_is_sorted_without_a_column_sized_stable_argsort(
        stable_argsorts):
    column = keys()
    first_merging_query(column)
    FullIndex(column)
    assert all(size < COLUMN_SIZED for size in stable_argsorts), stable_argsorts


@pytest.mark.parametrize("build", [first_merging_query, FullIndex])
def test_a_float64_column_still_takes_the_stable_argsort(stable_argsorts, build):
    build(keys(np.float64))
    assert sum(stable_argsorts) >= ROWS, stable_argsorts


@pytest.mark.parametrize("width", [1, 7, 1_000])
def test_the_branch_switches_where_the_span_stops_fitting(stable_argsorts, width):
    limit = 2 ** (63 - (width - 1).bit_length())
    for span, falls_back in ((limit - 1, False), (limit, True)):
        column = np.array([0, span] * width, dtype=np.uint64)
        del stable_argsorts[:]
        stable_sort_rows(column, width)
        assert bool(stable_argsorts) == falls_back, (span, stable_argsorts)


def test_int64_run_generation_allocates_its_two_arrays_and_no_third():
    """The runs are a ``values`` and a ``rowids`` array of the column's
    length: 2x the column's bytes.  Above that sit only the per-run vectors
    and numpy's fixed 64 KiB ufunc buffer for adding the run starts to the
    in-run positions; one more column-sized array, of any integer width
    from int32 up, would add 0.5x or more."""
    column = keys()
    tracemalloc.start()
    try:
        RunSet(column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.05 * column.nbytes, f"{peak / column.nbytes:.3f}x the column"
