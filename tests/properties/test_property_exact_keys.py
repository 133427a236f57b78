"""Oracle: every registry name answers a range exactly, whatever the key width.

A key keeps its column's type.  At strategy level the bounds go through
:func:`~repro.columnstore.types.exact_bounds` — the contract every kernel is
written against — and each of the registry names must return exactly the
rows a Python reference selects (Python compares ``int`` with ``float``
exactly, so the reference is the real comparison ``low <= v < high``).  The
columns are the ones where a float cast goes wrong: int64 keys around
``2**60`` (256 apart as floats), int64 holding both ends of its range,
uint64 past ``2**63``, int32 and float64.  The bounds are Python ints, numpy
ints, non-integral floats, ``±inf`` and ``None``.

Through a session the bounds stay raw floats: the planner is where they
become exact, so ``[2**60 + 0.5, 2**60 + 512)`` — whose lower bound *is*
``2**60`` as a float — selects ``2**60 <= v < 2**60 + 512`` and nothing more.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnstore.types import exact_bounds
from repro.core.strategies import available_strategies, create_strategy
from repro.engine.database import Database
from repro.engine.query import Query

WIDE = 2**60
INT64 = np.iinfo(np.int64)
UINT64 = np.iinfo(np.uint64)
INT32 = np.iinfo(np.int32)

NAMES = available_strategies()


def _wide(rng, size):
    return WIDE + rng.integers(-5_000, 5_001, size)


def _extremes(rng, size):
    ends = np.array([INT64.min, INT64.min + 1, -3, 0, 3, INT64.max - 1, INT64.max],
                    dtype=np.int64)
    return np.concatenate([ends, rng.choice(ends, size)])


def _past_2_63(rng, size):
    keys = rng.integers(2**63 - 5_000, 2**63 + 5_001, size, dtype=np.uint64)
    return np.append(keys, np.uint64(UINT64.max))


def _int32(rng, size):
    ends = np.array([INT32.min, -1, 0, 1, INT32.max], dtype=np.int32)
    return np.concatenate([ends, rng.integers(-50, 51, size, dtype=np.int32)])


def _float64(rng, size):
    return rng.integers(-200, 201, size) / 4.0


#: column kind -> (dtype, values(rng, size))
KINDS = {
    "int64 around 2**60": (np.int64, _wide),
    "int64 at both ends": (np.int64, _extremes),
    "uint64 past 2**63": (np.uint64, _past_2_63),
    "int32": (np.int32, _int32),
    "float64": (np.float64, _float64),
}


def column_of(kind, seed, size):
    dtype, make = KINDS[kind]
    return np.asarray(make(np.random.default_rng(seed), size), dtype=dtype)


def python(bound):
    """A bound as the reference compares it: numpy scalars become Python's."""
    return bound.item() if isinstance(bound, np.generic) else bound


def reference(values, low, high):
    low, high = python(low), python(high)
    return sorted(
        position for position, value in enumerate(values.tolist())
        if (low is None or value >= low) and (high is None or value < high)
    )


@st.composite
def bound_near(draw, values):
    """A bound of one of the five shapes, near a key of ``values`` (or the
    dtype's ends, or past them)."""
    dtype = values.dtype
    anchors = values.tolist()
    if dtype.kind in "iu":
        limits = np.iinfo(dtype)
        anchors += [int(limits.min) - 1, int(limits.max) + 1]
    anchor = draw(st.sampled_from(anchors))
    offset = draw(st.integers(-2, 2))
    shape = draw(st.sampled_from(["none", "inf", "int", "numpy", "float"]))
    if shape == "none":
        return None
    if shape == "inf":
        return draw(st.sampled_from([-math.inf, math.inf]))
    whole = math.floor(anchor) + offset
    if shape == "int":
        return whole
    if shape == "numpy":
        if dtype.kind in "iu":
            limits = np.iinfo(dtype)
            if limits.min <= whole <= limits.max:
                return dtype.type(whole)
        return np.int64(whole) if INT64.min <= whole <= INT64.max else whole
    # rounds to a neighbouring key on the wide columns
    return float(whole) + draw(st.sampled_from([0.25, 0.5, 0.75]))


def ordered(low, high):
    if low is not None and high is not None and python(low) > python(high):
        return high, low
    return low, high


@st.composite
def column_and_queries(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = column_of(kind, draw(st.integers(0, 2**16)), draw(st.integers(1, 120)))
    queries = draw(st.lists(
        st.tuples(bound_near(values), bound_near(values)).map(lambda pair: ordered(*pair)),
        min_size=1, max_size=5,
    ))
    return kind, values, queries


@pytest.mark.parametrize("name", NAMES)
@given(case=column_and_queries())
@settings(max_examples=12, deadline=None)
def test_every_name_answers_typed_bounds_exactly(name, case):
    kind, values, queries = case
    strategy = create_strategy(name, values)
    try:
        for raw in queries:
            low, high = exact_bounds(values.dtype, *raw)
            got = sorted(strategy.search(low, high).tolist())
            assert got == reference(values, *raw), (
                f"{name} on {kind}: {raw} -> [{low}, {high})")
    finally:
        strategy.close()


def _session_column():
    keys = _wide(np.random.default_rng(60), 400)
    return np.concatenate([keys, WIDE + np.arange(6)]).astype(np.int64)


#: raw float bounds around 2**60, where neighbouring floats are 256 apart
FLOAT_BOUNDS = st.one_of(
    st.none(),
    st.sampled_from([-math.inf, math.inf, WIDE + 0.5, WIDE + 512.0]),
    st.floats(min_value=float(WIDE - 6_000), max_value=float(WIDE + 6_000)),
)


@pytest.mark.parametrize("name", NAMES)
@given(queries=st.lists(st.tuples(FLOAT_BOUNDS, FLOAT_BOUNDS).map(lambda p: ordered(*p)),
                        min_size=1, max_size=4))
@settings(max_examples=4, deadline=None)
def test_float_bounds_through_a_session_are_exact(name, queries):
    values = _session_column()
    database = Database()
    try:
        database.create_table("t", {"k": values})
        database.set_indexing("t", "k", name)
        with database.session() as session:
            for low, high in [(WIDE + 0.5, WIDE + 512.0), *queries]:
                result = session.execute(Query.range_query("t", "k", low, high))
                assert sorted(result.positions.tolist()) == reference(values, low, high), (
                    f"{name}: [{low}, {high})")
    finally:
        database.close()


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("policy", ["ripple", "gradual"])
def test_typed_updates_are_found_queued_or_merged(policy, kind):
    """An insert keeps its key's type and a queued delete its row's, so a
    key a float cast would round (beyond 2**53, past 2**63, at the ends of
    int64) is found queued or merged, under either merge policy: at one
    merge per query the gradual column answers most updates from its queues
    (the full-range queries merge without cracking)."""
    rng = np.random.default_rng(0)
    values = column_of(kind, 0, 600)
    fresh = iter(column_of(kind, 1, 300).tolist())
    anchors = sorted(set(values.tolist()))
    strategy = create_strategy("updatable-cracking", values, policy=policy,
                               merge_batch=1)
    visible = dict(enumerate(values.tolist()))
    try:
        for step in range(240):
            if step % 4 in (1, 2):
                key = next(fresh)
                visible[strategy.insert(key)] = key
                continue
            if step % 4 == 3:
                victim = int(rng.choice(list(visible)))
                strategy.delete(victim)
                del visible[victim]
                continue
            low, high = (anchors[i] for i in rng.integers(0, len(anchors), 2))
            raw = [(None, None), ordered(low, high), (low, None)][step // 4 % 3]
            got = strategy.search(*exact_bounds(values.dtype, *raw))
            assert sorted(got.tolist()) == sorted(
                row for row, key in visible.items()
                if (raw[0] is None or raw[0] <= key) and (raw[1] is None or key < raw[1])
            ), f"{kind}, {policy}: {raw}"
        strategy.check_invariants()
    finally:
        strategy.close()
