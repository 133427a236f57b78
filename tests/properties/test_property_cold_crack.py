"""Oracle: a cold column's first crack is the copy and then the crack.

A lazy :class:`CrackedColumn` builds its cracker arrays on the first
operation that needs them.  Whatever that first crack does internally, it
must leave exactly what copying the base, numbering its rows and then
cracking the copy leaves.  The reference below is literally those steps:
``_materialise`` followed by ``crack_range`` (a search, then the gather of
the qualifying rowids) or ``crack_value`` (``crack_at``).  Per case the
values, the rowids, the index's boundary values and positions, the answer in
order and all six counters must be equal, and so must everything a second
search then does on the two columns.

The columns are int64, int32, float64 with heavy duplicates and uint64 past
``2**63``; the bounds are Python ints and floats typed by
:func:`~repro.columnstore.types.exact_bounds` (inside, outside and at the
edges of the domain, ``low == high``, one or both open), and the rows are
numbered from ``rowid_base = 0`` or from an offset, as a partition shard
numbers them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis_tools.type_witness import (
    TypeConformanceWitness,
    disable_type_witness,
    enable_type_witness,
)
from repro.columnstore.types import exact_bounds
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.crack_engine import crack_range, crack_value
from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.cost.counters import CostCounters

#: per dtype: how a small integer key becomes a key of the column, and the
#: key the bounds are drawn around
KEYS = {
    "int64": (lambda k: np.asarray(k, dtype=np.int64), 0),
    "int32": (lambda k: np.asarray(k, dtype=np.int32), 0),
    # quarters of a narrow range: many equal keys
    "float64": (lambda k: np.asarray(k, dtype=np.float64) / 4.0, 0),
    "uint64": (lambda k: (np.asarray(k, dtype=np.int64) + 2**10).astype(np.uint64)
               + np.uint64(2**63 - 2**10), 2**63),
}


def _bound(centre):
    """A raw bound near ``centre``: a Python int or a non-integral float,
    in or past the keys' range, or None (open)."""
    offsets = st.integers(-40, 40)
    return st.one_of(
        st.none(),
        offsets.map(lambda k: centre + k),
        offsets.map(lambda k: centre + k + 0.5),
    )


@st.composite
def cases(draw):
    dtype = draw(st.sampled_from(sorted(KEYS)))
    make, centre = KEYS[dtype]
    keys = draw(st.lists(st.integers(-30, 30), max_size=120))
    values = make(keys)
    low, high = exact_bounds(values.dtype, draw(_bound(centre)), draw(_bound(centre)))
    if low is not None and high is not None and high < low:
        low, high = high, low
    rowid_base = draw(st.sampled_from([0, 1_000]))
    return values, low, high, rowid_base


def _state(column):
    return (column.values.dtype, column.values.tolist(),
            column.rowids.dtype, column.rowids.tolist(),
            column.index.pieces())


def _reference_search(values, low, high, rowid_base):
    column = CrackedColumn(values, rowid_base=rowid_base)
    counters = CostCounters()
    column._materialise(counters)
    start, end = crack_range(column.values, column.rowids, column.index,
                             low, high, counters)
    counters.record_scan(end - start)
    return column, column.rowids[start:end].copy(), counters


def _assert_same_then_same_again(column, reference, low, high):
    assert _state(column) == _state(reference)
    # a second search on each finds the same arrays and index
    again, expected = CostCounters(), CostCounters()
    answer = column.search(low, high, again)
    assert answer.tolist() == reference.search(low, high, expected).tolist()
    assert again == expected
    assert _state(column) == _state(reference)
    column.check_invariants()


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_a_cold_search_is_the_copy_then_the_crack(case):
    values, low, high, rowid_base = case
    column = CrackedColumn(values, rowid_base=rowid_base)
    counters = CostCounters()
    answer = column.search(low, high, counters)
    reference, expected, charged = _reference_search(values, low, high, rowid_base)
    assert answer.dtype == expected.dtype
    assert answer.tolist() == expected.tolist()
    assert counters == charged
    _assert_same_then_same_again(column, reference, low, high)


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_a_cold_crack_at_is_the_copy_then_crack_value(case):
    values, low, high, rowid_base = case
    pivot = next((bound for bound in (low, high) if bound is not None), 0)
    column = CrackedColumn(values, rowid_base=rowid_base)
    counters = CostCounters()
    position = column.crack_at(pivot, counters)
    reference = CrackedColumn(values, rowid_base=rowid_base)
    charged = CostCounters()
    reference._materialise(charged)
    expected = crack_value(reference.values, reference.rowids, reference.index,
                           pivot, charged)
    assert position == expected
    assert counters == charged
    _assert_same_then_same_again(column, reference, low, high)


BOUNDS = [(3, 6), (3, 3), (None, 6), (3, None), (None, None), (-100, -50), (50, 100)]


@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("low, high", BOUNDS)
@pytest.mark.parametrize("rowid_base", [0, 7])
def test_an_empty_or_one_row_column(size, low, high, rowid_base):
    values = np.array([4] * size, dtype=np.int64)
    column = CrackedColumn(values, rowid_base=rowid_base)
    counters = CostCounters()
    answer = column.search(low, high, counters)
    reference, expected, charged = _reference_search(values, low, high, rowid_base)
    assert answer.tolist() == expected.tolist()
    assert counters == charged
    _assert_same_then_same_again(column, reference, low, high)


@given(case=cases(), variant=st.sampled_from(["ddr", "ddc", "mdd1r"]))
@settings(max_examples=100, deadline=None)
def test_a_cold_stochastic_search_is_the_copy_then_the_cuts(case, variant):
    # the reference copies the base, then makes the auxiliary cuts and the
    # query's crack on the copy, as a cold stochastic search did before it
    # built its arrays from the base
    values, low, high, _ = case
    column = StochasticCrackedColumn(values, variant=variant, seed=3)
    counters = CostCounters()
    answer = column.search(low, high, counters)
    reference = StochasticCrackedColumn(values, variant=variant, seed=3)
    charged = CostCounters()
    reference._materialise(charged)
    for bound in (low, high):
        if bound is not None:
            reference._shrink_piece_containing(bound, charged, variant != "mdd1r")
    start, end = crack_range(reference.values, reference.rowids, reference.index,
                             low, high, charged)
    charged.record_scan(end - start)
    assert answer.tolist() == reference.rowids[start:end].tolist()
    assert counters == charged
    _assert_same_then_same_again(column, reference, low, high)


def test_the_first_search_builds_its_arrays_without_an_in_place_partition(monkeypatch):
    # the ten-row column of the kernel contracts' ``first-search-copies``
    # case, under the armed type witness
    reached = []
    check_call = TypeConformanceWitness.check_call

    def recording(self, kernel, *args):
        reached.append(kernel)
        return check_call(self, kernel, *args)

    monkeypatch.setattr(TypeConformanceWitness, "check_call", recording)
    witness = enable_type_witness()
    try:
        column = CrackedColumn(np.array([7, 2, 9, 4, 0, 5, 8, 1, 6, 3], dtype=np.int64))
        answer = column.search(3, 6, CostCounters())
    finally:
        disable_type_witness()
    assert witness.violations() == []
    assert answer.tolist() == [3, 5, 9]
    assert "partition_copy" in reached
    assert not {"partition_two_way", "partition_three_way"} & set(reached)
