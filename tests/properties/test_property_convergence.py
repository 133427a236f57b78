"""Property: ``converged`` is exactly "nothing pending and fully sorted".

``CrackedColumn.converged`` decides whether a search may still reorganise
the column, and through ``reorganizes_on_read`` whether the engine hands a
query an exclusive or a shared claim.  Its truth value therefore has to be
*exact* at every call — not merely eventually right — whatever the input
looks like and whatever ran before: the O(n) oracle ``is_fully_sorted()``
says what it must answer.  Once it has answered True the column is latched:
every later search is two binary searches, moves nothing and creates no
piece, until an update is physically merged.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnstore.bulk import binary_search_count
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.core.partitioned import PartitionedCrackedColumn
from repro.cost.counters import CostCounters

DOMAIN = 1000

SHAPES = ("random", "sorted", "reverse", "constant", "duplicates",
          "two-element", "nearly-sorted")


def make_values(shape, size, seed):
    """One input array of the given shape (deterministic in its arguments)."""
    rng = np.random.default_rng(seed)
    if shape == "two-element":
        return rng.integers(0, DOMAIN, size=2).astype(np.int64)
    values = rng.integers(0, DOMAIN, size=size).astype(np.int64)
    if shape == "sorted":
        values.sort()
    elif shape == "reverse":
        values = np.sort(values)[::-1].copy()
    elif shape == "constant":
        values[:] = DOMAIN // 2
    elif shape == "duplicates":
        values %= 4
    elif shape == "nearly-sorted":
        values.sort()
        for _ in range(min(3, size // 2)):
            a, b = rng.integers(0, size, size=2)
            values[a], values[b] = values[b], values[a]
    return values


inputs = st.builds(
    make_values,
    shape=st.sampled_from(SHAPES),
    size=st.integers(min_value=0, max_value=700),
    seed=st.integers(min_value=0, max_value=2**16),
)

value = st.integers(min_value=-5, max_value=DOMAIN + 5)
bound = st.one_of(st.none(), value)


def ordered(low, high):
    """A range the kernels accept: ``high`` is never below ``low``."""
    if low is not None and high is not None and high < low:
        low, high = high, low
    return ("search", low, high)


searches = st.builds(ordered, bound, bound)

operations = st.lists(
    st.one_of(
        searches,
        searches,
        st.tuples(st.just("crack"), value),
        st.tuples(st.just("insert"), value),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(st.just("update"), st.integers(min_value=0), value),
    ),
    min_size=4, max_size=30,
)

update_options = st.fixed_dictionaries({
    "merge_batch": st.integers(min_value=1, max_value=3),
    "supports_updates": st.booleans(),
})


def oracle(column) -> bool:
    """What ``column.converged`` must answer right now (never latches)."""
    if isinstance(column, PartitionedCrackedColumn):
        return all(
            p._bounds_known and oracle(p.cracked) for p in column.partitions
        )
    return (column.pending_inserts == 0 and column.pending_deletes == 0
            and column.is_fully_sorted())


def plain_columns(column):
    if isinstance(column, PartitionedCrackedColumn):
        return [p.cracked for p in column.partitions]
    return [column]


def snapshot(column):
    return [(c.piece_count, None if c.values is None else c.values.copy())
            for c in plain_columns(column)]


def same_state(before, after) -> bool:
    return all(
        pieces == other_pieces and np.array_equal(values, other_values)
        for (pieces, values), (other_pieces, other_values) in zip(before, after)
    )


def check_converged_everywhere(column):
    """The exactness property, on the column and on each partition's own."""
    assert column.converged == oracle(column)
    for plain in plain_columns(column):
        assert plain.converged == oracle(plain)
        if plain.converged:
            assert plain._converged, "a True answer latches"


def latched_search(column, low, high):
    """A search on a column that just answered ``converged``: binary search
    only — nothing moves, no piece appears, and asking again costs the same."""
    before = snapshot(column)
    first, second = CostCounters(), CostCounters()
    answer = column.search(low, high, first)
    again = column.search(low, high, second)
    assert same_state(before, snapshot(column))
    assert np.array_equal(answer, again)
    assert first.as_dict() == second.as_dict()
    assert first.tuples_moved == first.pieces_created == first.bytes_allocated == 0
    if not isinstance(column, PartitionedCrackedColumn):
        probes = (low is not None) + (high is not None)
        assert first.comparisons == probes * binary_search_count(len(column.values))
        assert first.random_accesses == probes
        assert first.tuples_scanned == len(answer)
    return answer


def drive(column, values, ops):
    """Run ``ops`` against ``column`` and a rowid -> value model of it."""
    model = {rowid: int(v) for rowid, v in enumerate(values.tolist())}
    check_converged_everywhere(column)
    for op in ops:
        kind = op[0]
        if kind == "search":
            low, high = op[1], op[2]
            if column.converged:
                answer = latched_search(column, low, high)
            else:
                answer = column.search(low, high, CostCounters())
            expected = {
                rowid for rowid, v in model.items()
                if (low is None or v >= low) and (high is None or v < high)
            }
            assert set(answer.tolist()) == expected
            assert len(answer) == len(expected)
        elif kind == "crack":
            column.crack_at(op[1], CostCounters())
        elif kind == "insert":
            model[column.insert(op[1], CostCounters())] = op[1]
        elif model:
            victim = sorted(model)[op[1] % len(model)]
            del model[victim]
            if kind == "delete":
                column.delete(victim, CostCounters())
            else:
                model[column.update(victim, op[2], CostCounters())] = op[2]
        check_converged_everywhere(column)
    column.check_invariants()


@pytest.mark.parametrize("policy", ["ripple", "gradual"])
@given(values=inputs, ops=operations, options=update_options)
@settings(max_examples=100, deadline=None)
def test_cracked_column_converged_is_exact_after_every_step(policy, values, ops, options):
    drive(CrackedColumn(values, policy=policy, **options), values, ops)


@given(values=inputs, ops=operations,
       variant=st.sampled_from(["ddr", "ddc", "mdd1r"]),
       supports_updates=st.booleans())
@settings(max_examples=80, deadline=None)
def test_stochastic_column_converged_is_exact_after_every_step(
        values, ops, variant, supports_updates):
    column = StochasticCrackedColumn(
        values, variant=variant, seed=1,
        supports_updates=supports_updates,
    )
    drive(column, values, ops)


@given(values=inputs, ops=operations, partitions=st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_partitioned_column_converged_is_exact_after_every_step(values, ops, partitions):
    # a partitioned column takes searches only: no crack_at, no DML
    with PartitionedCrackedColumn(values, partitions=partitions) as column:
        drive(column, values, [op for op in ops if op[0] == "search"])


@pytest.mark.parametrize("shape", ["sorted", "constant", "two-element"])
def test_sorted_input_latches_at_its_first_classification(shape):
    values = np.sort(make_values(shape, 300, seed=3))
    lazy = CrackedColumn(values)
    assert not lazy.converged, "an unmaterialised column has nothing sorted yet"
    eager = CrackedColumn(values, supports_updates=True)
    assert eager.converged and eager._converged
    assert eager.piece_count == 1, "recognised without a single crack"


def test_never_cracked_random_input_says_false_and_stays_unlatched():
    column = CrackedColumn(make_values("random", 300, seed=4), supports_updates=True)
    for _ in range(3):
        assert not column.converged
    assert not column._converged


@pytest.mark.parametrize("values", [
    [1.0, 2.0, float("nan")], [float("nan"), 1.0, 2.0], [1.0, float("nan"), 2.0],
    [float("nan"), float("nan")],
])
def test_a_nan_never_converges(values):
    column = CrackedColumn(np.asarray(values), supports_updates=True)
    assert not column.is_fully_sorted()
    assert not column.converged


def test_a_descent_left_behind_the_witness_is_still_found():
    """The witness sits on the last descent; a ripple opens one in front of
    it and a crack closes the one it sat on — "nothing from here to the end"
    must not read as "sorted"."""
    values = np.arange(500, dtype=np.int64)
    values[[498, 499]] = values[[499, 498]]
    column = CrackedColumn(values, supports_updates=True)
    assert not column.converged
    column.insert(5)
    column.search(0, 10)        # merges the insert: ..., 8, 9, 5, 10, ...
    assert not column.converged
    column.crack_at(499)        # orders the tail the witness pointed at
    assert np.all(column.values[300:-1] <= column.values[301:])
    assert not column.is_fully_sorted()
    assert not column.converged and not column._converged
