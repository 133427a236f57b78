"""Per-kernel contracts held at run time: what each counting kernel charges,
that counting never changes what it does, and which buffers it writes.

Every case below runs one reorganisation kernel (or the column method that
owns one) on the same ten-row column.  The charges are pinned as the whole
six-counter vector, so a kernel that starts charging a channel it never
charged fails as surely as one that stops charging one.  The type witness
then checks each ``@typed_kernel`` boundary the cases reach, and each name
in a kernel's ``mutates=`` is shown to be needed: without it the armed
witness reports the write.
"""

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import pytest

import repro
from repro.analysis_tools.guards import typed_kernel
from repro.analysis_tools.type_witness import (
    TypeConformanceViolation,
    TypeConformanceWitness,
    disable_type_witness,
    enable_type_witness,
)
from repro.columnstore.bulk import (
    partition_three_way,
    partition_two_way,
    range_mask,
    stable_sort_rows,
)
from repro.core.cracking.crack_engine import (
    _crack_in_two,
    charge_batch,
    crack_many,
    crack_range,
    crack_value,
    locate_bounds,
    ripple_delete_position,
    ripple_insert_value,
)
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.cracker_index import CrackerIndex
from repro.cost.counters import CostCounters
from repro.indexes.full_index import FullIndex


@pytest.fixture(autouse=True)
def _witness_off_between_tests():
    disable_type_witness()
    yield
    disable_type_witness()


def _column() -> np.ndarray:
    return np.array([7, 2, 9, 4, 0, 5, 8, 1, 6, 3], dtype=np.int64)


def _arrays():
    """Values, aligned rowids and a dragged payload, each a fresh copy."""
    values = _column()
    return values, np.arange(len(values), dtype=np.int64), values * 10


def _cracked_at_five():
    """The column cracked at 5 (``[2 4 0 1 3 | 7 9 5 8 6]``) with one spare
    slot behind it, as the ripple kernels find a cracker column."""
    values = np.array([2, 4, 0, 1, 3, 7, 9, 5, 8, 6, -1], dtype=np.int64)
    rowids = np.array([1, 3, 4, 7, 9, 0, 2, 5, 6, 8, -1], dtype=np.int64)
    return values, rowids, np.array([5], dtype=np.int64)


Outcome = Tuple[object, ...]


class Case(NamedTuple):
    name: str
    run: Callable[[Optional[CostCounters]], Outcome]
    #: (scanned, moved, comparisons, random accesses, bytes, pieces)
    charges: Tuple[int, int, int, int, int, int]
    #: whether the case reaches a ``@typed_kernel`` boundary
    typed: bool = True


def _range_mask(low, high):
    def run(counters):
        return (range_mask(_column(), low, high, counters),)
    return run


def _partition_two_way(counters):
    values, rowids, payload = _arrays()
    split = partition_two_way(values, 0, 10, 5, counters, payload=[rowids, payload])
    return split, values, rowids, payload


def _partition_three_way(counters):
    values, rowids, payload = _arrays()
    splits = partition_three_way(values, 0, 10, 3, 6, counters,
                                 payload=[rowids, payload])
    return splits, values, rowids, payload


def _stable_sort_rows(counters):
    return stable_sort_rows(_column(), 4, counters)


def _crack_value_new(counters):
    values, rowids, payload = _arrays()
    index = CrackerIndex(len(values))
    split = crack_value(values, rowids, index, 5, counters, payload)
    return split, values, rowids, payload, index.boundary_positions


def _crack_value_known(counters):
    values, rowids, payload = _arrays()
    index = CrackerIndex(len(values))
    crack_value(values, rowids, index, 5, None, payload)
    split = crack_value(values, rowids, index, 5, counters, payload)
    return split, values, rowids, payload, index.boundary_positions


def _crack_range_in_three(counters):
    values, rowids, payload = _arrays()
    index = CrackerIndex(len(values))
    region = crack_range(values, rowids, index, 3, 6, counters, payload)
    return region, values, rowids, payload, index.boundary_positions


def _crack_range_in_two(counters):
    values, rowids, payload = _arrays()
    index = CrackerIndex(len(values))
    crack_value(values, rowids, index, 5, None, payload)
    region = crack_range(values, rowids, index, 3, 8, counters, payload)
    return region, values, rowids, payload, index.boundary_positions


def _crack_many(counters):
    values, rowids, _payload = _arrays()
    index = CrackerIndex(len(values))
    bounds = locate_bounds(index, [(3, 6), (2, 8)])
    answers, charges = crack_many(values, rowids, index, bounds)
    charge_batch([counters, counters], charges)
    return (*answers, values, rowids, index.boundary_positions)


def _ripple_insert(counters):
    values, rowids, boundaries = _cracked_at_five()
    ripple_insert_value(values, rowids, 10, 4, 10, boundaries, counters)
    return values, rowids


def _ripple_delete(counters):
    values, rowids, boundaries = _cracked_at_five()
    moves = ripple_delete_position(values, rowids, 1, 10, boundaries, counters)
    return moves, values[:9], rowids[:9]


def _first_search(counters):
    column = CrackedColumn(_column())
    answer = column.search(3, 6, counters)
    return answer, column.values, column.rowids, column.index.boundary_positions


def _full_index_lookup(counters):
    return (FullIndex(_column()).lookup(3, 6, counters),)


def _merge_pending(update):
    def run(counters):
        column = CrackedColumn(_column())
        column.search(3, 6)
        update(column)
        answer = column.search(3, 6, counters)
        return answer, column.visible_values(), column.pending_inserts, column.pending_deletes
    return run


CASES = [
    Case("range_mask-low", _range_mask(3, None), (10, 0, 10, 0, 0, 0), typed=False),
    Case("range_mask-high", _range_mask(None, 6), (10, 0, 10, 0, 0, 0), typed=False),
    Case("range_mask-both", _range_mask(3, 6), (10, 0, 20, 0, 0, 0), typed=False),
    Case("partition_two_way", _partition_two_way, (10, 10, 10, 0, 0, 0)),
    Case("partition_three_way", _partition_three_way, (10, 10, 20, 0, 0, 0)),
    Case("stable_sort_rows", _stable_sort_rows, (0, 10, 18, 0, 0, 0)),
    Case("crack_value-new-boundary", _crack_value_new, (10, 10, 11, 0, 0, 1)),
    Case("crack_value-known-boundary", _crack_value_known, (0, 0, 2, 0, 0, 0)),
    Case("crack_range-in-three", _crack_range_in_three, (10, 10, 21, 0, 0, 2)),
    Case("crack_range-in-two", _crack_range_in_two, (10, 10, 14, 0, 0, 2)),
    # the crack-in-three and two cracks-in-two of crack_range, plus the
    # gathers of the 3 and 6 qualifying rowids
    Case("crack_many", _crack_many, (26, 17, 33, 0, 0, 4)),
    Case("ripple_insert_value", _ripple_insert, (0, 2, 0, 2, 0, 0)),
    Case("ripple_delete_position", _ripple_delete, (0, 2, 0, 2, 0, 0)),
    # a lazy column's first search is charged the copy (10 scans and moves,
    # 160 bytes), then the crack-in-three and the gather of 3 rowids
    Case("first-search-copies", _first_search, (23, 20, 21, 0, 160, 2)),
    Case("full_index-lookup", _full_index_lookup, (3, 0, 8, 2, 0, 0)),
    # two known bounds (2 + 2), one pending entry to qualify; the ripple
    # moves one element plus the new one
    Case("merge-pending-insert", _merge_pending(lambda c: c.insert(4)),
         (4, 2, 5, 2, 0, 0)),
    Case("merge-pending-delete", _merge_pending(lambda c: c.delete(3)),
         (5, 2, 5, 2, 0, 0)),  # 3 scans find the row in its piece
]


def _charges(counters: CostCounters) -> Tuple[int, ...]:
    return tuple(counters.as_dict().values())


def _same(left: Outcome, right: Outcome) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
            if not _same(tuple(a), tuple(b)):
                return False
        elif not np.array_equal(np.asarray(a), np.asarray(b)):
            return False
    return True


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_each_kernel_charges_exactly_its_recorded_vector(case):
    counters = CostCounters()
    case.run(counters)
    assert _charges(counters) == case.charges


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_counting_does_not_change_what_a_kernel_does(case):
    assert _same(case.run(CostCounters()), case.run(None))


WITNESSED = [case for case in CASES if case.typed]


@pytest.mark.parametrize("case", WITNESSED, ids=lambda case: case.name)
def test_every_typed_boundary_a_kernel_reaches_conforms(case):
    witness = enable_type_witness()
    armed = case.run(CostCounters())
    disable_type_witness()
    assert witness.calls_checked > 0
    assert witness.violations() == []
    assert _same(armed, case.run(CostCounters()))


def _typed_kernels():
    """Qualified name of every ``@typed_kernel`` in the engine."""
    import importlib
    import pkgutil

    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.analysis_tools") or info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            if getattr(owner, "__module__", module.__name__) != module.__name__:
                continue
            for value in vars(owner).values():
                if getattr(value, "__typed_kernel__", False):
                    found.add(value.__qualname__)
    return found


def test_the_cases_reach_every_typed_kernel(monkeypatch):
    reached = set()
    check_call = TypeConformanceWitness.check_call

    def recording(self, kernel, *args):
        reached.add(kernel)
        return check_call(self, kernel, *args)

    monkeypatch.setattr(TypeConformanceWitness, "check_call", recording)
    enable_type_witness()
    for case in WITNESSED:
        case.run(CostCounters())
    kernels = _typed_kernels()
    assert "partition_two_way" in kernels
    assert kernels - reached == set()


# -- every name in mutates= is written ---------------------------------------------


def _call_crack_in_two(kernel):
    values, rowids, payload = _arrays()
    index = CrackerIndex(len(values))
    kernel(values, rowids, index, 5, index.lookup(5), None, payload)


def _call_crack_many(kernel):
    values, rowids, _payload = _arrays()
    index = CrackerIndex(len(values))
    kernel(values, rowids, index, locate_bounds(index, [(3, 6)]))


def _call_ripple_insert(kernel):
    values, rowids, boundaries = _cracked_at_five()
    kernel(values, rowids, 10, 4, 10, boundaries, None)


def _call_ripple_delete(kernel):
    values, rowids, boundaries = _cracked_at_five()
    kernel(values, rowids, 1, 10, boundaries, None)


def _call_with_arrays(*arguments, payload_keyword=False):
    def call(kernel):
        values, rowids, payload = _arrays()
        if payload_keyword:
            kernel(values, *arguments, payload=[rowids, payload])
        else:
            index = CrackerIndex(len(values))
            kernel(values, rowids, index, *arguments, None, payload)
    return call


MUTATING_KERNELS = [
    (partition_two_way, _call_with_arrays(0, 10, 5, None, payload_keyword=True)),
    (partition_three_way, _call_with_arrays(0, 10, 3, 6, None, payload_keyword=True)),
    (_crack_in_two, _call_crack_in_two),
    (crack_value, _call_with_arrays(5)),
    (crack_range, _call_with_arrays(3, 6)),
    (crack_many, _call_crack_many),
    (ripple_insert_value, _call_ripple_insert),
    (ripple_delete_position, _call_ripple_delete),
]

WRITES = [
    pytest.param(kernel, call, name, id=f"{kernel.__name__}-{name}")
    for kernel, call in MUTATING_KERNELS
    for name in kernel.__typed_mutates__
]


@pytest.mark.parametrize("kernel, call, name", WRITES)
def test_each_declared_write_is_one_the_witness_would_catch(kernel, call, name):
    # the kernel as declared passes; without ``name`` in mutates= the armed
    # witness reports the write, so the declaration is neither stale nor
    # wider than what the kernel does
    enable_type_witness()
    call(kernel)
    narrowed = typed_kernel(
        buffers=kernel.__typed_buffers__,
        mutates=[other for other in kernel.__typed_mutates__ if other != name],
    )(kernel.__wrapped__)
    with pytest.raises(TypeConformanceViolation,
                       match=f"wrote buffer '{name}', which it does not list"):
        call(narrowed)
