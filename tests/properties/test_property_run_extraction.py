"""Adaptive merging and the hybrids' sorted initial partitions against a
per-run reference model.

The model below is the textbook formulation, one Python object per run: every
gap of a query is located in every non-empty run by two binary searches, cut
out of it (the run is rebuilt without the extracted entries) and handed to
the final partition.  Whatever data layout the package uses must give, after
**every** query, the model's answers in the model's order, its
``CostCounters``, ``nbytes``, live-run / live-tuple count, ``fully_merged``
and ``structure_description``.
"""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.columnstore.bulk import binary_search_count, stable_sort_rows
from repro.columnstore.types import exact_bounds
from repro.core.hybrids.final_partition import FinalPartition
from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.merging.runs import RunSet
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.indexes.full_index import FullIndex


def lower_bound(values, key):
    """Where ``key`` goes in the sorted ``values``, compared as Python
    compares them (exactly, where numpy may cast both sides to float64)."""
    return bisect_left(values.tolist(), key)


def sort_cost(size):
    return int(size * max(1.0, np.log2(max(size, 2))))


class ReferenceModel:
    """Per-run adaptive merging; ``final_mode`` None keeps adaptive
    merging's one sorted final array, a mode name the hybrids' pieces."""

    def __init__(self, base, run_size, final_mode=None):
        self.base, self.run_size = base, run_size
        self.runs = None
        self.merged = []  # disjoint covered [low, high), sorted
        self.final_values = np.empty(0, dtype=base.dtype)
        self.final_rowids = np.empty(0, dtype=np.int64)
        self.pieces = FinalPartition(final_mode) if final_mode else None

    def _generate_runs(self, counters):
        n = len(self.base)
        size = self.run_size or max(1, int(np.sqrt(n)))
        self.runs = []
        for start in range(0, n, size):
            chunk = self.base[start:start + size]
            order = np.argsort(chunk, kind="stable")
            self.runs.append([chunk[order], start + order.astype(np.int64)])
            counters.record_scan(len(chunk))
            counters.record_move(len(chunk))
            counters.record_comparisons(sort_cost(len(chunk)))
            counters.record_allocation(len(chunk) * (chunk.itemsize + 8))
            counters.record_pieces(1)

    def _extract(self, low, high, counters):
        parts = []
        for run in self.runs:
            values, rowids = run
            if len(values) == 0:
                continue
            begin = lower_bound(values, low)
            end = max(begin, lower_bound(values, high))
            counters.record_comparisons(2 * binary_search_count(len(values)))
            counters.record_random_access(2)
            if begin == end:
                continue
            parts.append((values[begin:end], rowids[begin:end]))
            run[0] = np.concatenate([values[:begin], values[end:]])
            run[1] = np.concatenate([rowids[:begin], rowids[end:]])
            counters.record_scan(end - begin)
            counters.record_move(end - begin)
        if not parts:
            return None
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    def _merge_gap(self, low, high, counters):
        block = self._extract(low, high, counters)
        if block is None:
            return
        if self.pieces is not None:
            self.pieces.add_piece(low, high, block[0], block[1], counters)
            return
        order = np.argsort(block[0], kind="stable")
        values, rowids = block[0][order], block[1][order]
        counters.record_comparisons(sort_cost(len(values)))
        counters.record_move(len(values))
        first = len(self.final_values) == 0
        at = int(np.searchsorted(self.final_values, values[0], side="left"))
        self.final_values = np.concatenate(
            [self.final_values[:at], values, self.final_values[at:]])
        self.final_rowids = np.concatenate(
            [self.final_rowids[:at], rowids, self.final_rowids[at:]])
        if not first:
            counters.record_move(len(values))
            counters.record_comparisons(binary_search_count(len(self.final_values)))

    def _uncovered(self, low, high):
        gaps, cursor = [], low
        for covered_low, covered_high in self.merged:
            if covered_high <= cursor or covered_low >= high:
                continue
            if covered_low > cursor:
                gaps.append((cursor, covered_low))
            cursor = max(cursor, covered_high)
        if cursor < high:
            gaps.append((cursor, high))
        return gaps

    def _cover(self, low, high):
        apart = [(a, b) for a, b in self.merged if b < low or a > high]
        touching = [(a, b) for a, b in self.merged if not (b < low or a > high)]
        low = min([low] + [a for a, _ in touching])
        high = max([high] + [b for _, b in touching])
        self.merged = sorted(apart + [(low, high)])

    @property
    def live(self):
        return sum(len(run[0]) for run in self.runs or [])

    @property
    def run_count(self):
        return sum(1 for run in self.runs or [] if len(run[0]))

    @property
    def fully_merged(self):
        return self.runs is not None and self.live == 0

    @property
    def nbytes(self):
        item = self.base.itemsize + 8
        final = len(self.pieces) if self.pieces is not None else len(self.final_values)
        return (self.live + final) * item

    def search(self, low, high, counters):
        if self.runs is None:
            self._generate_runs(counters)
        n = len(self.base)
        if n == 0 and self.pieces is not None:
            return np.empty(0, dtype=np.int64)
        if not self.fully_merged:
            # an open bound is an infinite end of the merged ranges
            eff_low = -math.inf if low is None else low
            eff_high = math.inf if high is None else high
            covered = eff_high <= eff_low or any(
                a <= eff_low and eff_high <= b for a, b in self.merged)
            if not covered:
                for gap_low, gap_high in self._uncovered(eff_low, eff_high):
                    self._merge_gap(gap_low, gap_high, counters)
                self._cover(eff_low, eff_high)
        if self.pieces is not None:
            return self.pieces.search(low, high, counters)
        final = self.final_values
        begin = 0 if low is None else lower_bound(final, low)
        end = len(final) if high is None else lower_bound(final, high)
        end = max(end, begin)
        counters.record_comparisons(2 * binary_search_count(len(final)))
        counters.record_scan(end - begin)
        return self.final_rowids[begin:end]


# -- the three subjects, each with the facts the model must reproduce ------------------
#
# A subject is ``(searcher, model, observed, expected)``: the last two return
# ``(nbytes, live runs or tuples, fully_merged, structure description)`` as the
# package reports them and as the model implies them.


def merging_subject(base, run_size):
    strategy = create_strategy("adaptive-merging", base, run_size=run_size)
    model = ReferenceModel(base, run_size)
    return strategy, model, lambda: (
        strategy.nbytes, strategy.run_count, strategy.fully_merged,
        strategy.structure_description,
    ), lambda: (
        model.nbytes, model.run_count, model.fully_merged,
        f"adaptive merging: {model.run_count} runs left, "
        f"{len(model.final_values)} tuples merged",
    )


def _hybrid_subject(searcher, index, name, model):
    def describe(final):
        return (f"{name}: {len(final)} tuples in final partition "
                f"({final.piece_count} pieces)")
    return searcher, model, lambda: (
        index.nbytes, sum(len(p) for p in index.partitions), index.fully_merged,
        searcher.structure_description,
    ), lambda: (
        model.nbytes, model.live, model.fully_merged, describe(model.pieces),
    )


# A hybrid's initial partitions always hold sqrt(n) rows, so its subjects
# ignore ``run_size``: the column's length varies the run size instead.

def hybrid_sort_sort_subject(base, run_size):
    strategy = create_strategy("hybrid-sort-sort", base)
    return _hybrid_subject(strategy, strategy, "hybrid-sort-sort",
                           ReferenceModel(base, None, "sort"))


def hybrid_sort_crack_subject(base, run_size):
    index = HybridIndex(base, initial_mode="sort", final_mode="crack")
    return _hybrid_subject(index, index, "hybrid-sort-crack",
                           ReferenceModel(base, None, "crack"))


SUBJECTS = (merging_subject, hybrid_sort_sort_subject, hybrid_sort_crack_subject)


def assert_stream_matches_model(make_subject, base, run_size, queries):
    searcher, model, observed, expected = make_subject(base, run_size)
    for step, (low, high) in enumerate(queries):
        got_counters, want_counters = CostCounters(), CostCounters()
        got = searcher.search(low, high, got_counters)
        want = model.search(low, high, want_counters)
        where = f"query {step}: [{low}, {high})"
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), where
        assert got_counters.as_dict() == want_counters.as_dict(), where
        assert observed() == expected(), where
    getattr(searcher, "index", searcher).check_invariants()


# -- generated streams ---------------------------------------------------------------

#: a domain this narrow makes duplicates, repeated, adjacent and nested
#: ranges and bounds that hit stored keys the common case
DOMAIN = 40

bound = st.one_of(
    st.none(),
    st.integers(-3, DOMAIN + 3),
    st.integers(-6, 2 * DOMAIN + 6).map(lambda k: k / 2),
    st.floats(-3, DOMAIN + 3, allow_nan=False),
)
query = st.tuples(bound, bound)  # unordered on purpose: inverted and empty ranges
stream = st.builds(
    lambda head, drain, tail: head + drain + tail,
    st.lists(query, min_size=1, max_size=12),
    st.sampled_from([[], [(None, None)], [(None, DOMAIN / 2), (DOMAIN / 2, None)]]),
    st.lists(query, max_size=6),
)

int_column = st.lists(st.integers(0, DOMAIN), max_size=90).map(
    lambda xs: np.asarray(xs, dtype=np.int64))
float_column = st.lists(st.integers(0, 4 * DOMAIN), max_size=90).map(
    lambda xs: np.asarray(xs, dtype=np.float64) / 4)
run_size = st.one_of(st.none(), st.integers(1, 100))


@given(subject=st.sampled_from(SUBJECTS), base=st.one_of(int_column, float_column),
       run_size=run_size, queries=stream)
@settings(max_examples=300, deadline=None)
# duplicates of the gap bound itself, on both sides of an earlier range
@example(subject=merging_subject, base=np.array([5, 7, 5, 7, 6, 5, 7], dtype=np.int64),
         run_size=3, queries=[(5, 7), (None, 5.0), (7, None), (4.5, 7.5)])
# float bounds between integer keys, ragged last run, nested then enclosing
@example(subject=hybrid_sort_sort_subject, base=np.arange(11, dtype=np.int64)[::-1].copy(),
         run_size=None, queries=[(2.5, 6.5), (3, 4), (0.5, 9.5), (None, None), (1, 2)])
# one run holding everything, one row per run, nothing at all, one row
@example(subject=merging_subject, base=np.array([3, 1, 2, 1], dtype=np.int64),
         run_size=100, queries=[(1, 2), (1, 1), (None, 3), (3, None)])
@example(subject=merging_subject, base=np.array([2.5, 0.25, 2.5, 1.0]),
         run_size=1, queries=[(0.25, 2.5), (2.5, 0.25), (2.5, 2.75), (None, None), (0, 9)])
@example(subject=merging_subject, base=np.empty(0, dtype=np.int64), run_size=None,
         queries=[(None, None), (1, 2)])
@example(subject=hybrid_sort_sort_subject, base=np.array([7], dtype=np.int64),
         run_size=None, queries=[(8, None), (None, 7), (7, 8), (None, None)])
def test_every_query_matches_the_per_run_model(subject, base, run_size, queries):
    assert_generated_stream_matches_model(subject, base, run_size, queries)


@given(subject=st.sampled_from(SUBJECTS),
       dtype=st.sampled_from([np.int8, np.int16, np.int32]),
       base=int_column, run_size=run_size, queries=stream)
@settings(max_examples=60, deadline=None)
def test_narrow_integer_columns_match_the_per_run_model(
        subject, dtype, base, run_size, queries):
    """The same streams over keys stored in fewer than eight bytes."""
    assert_generated_stream_matches_model(subject, base.astype(dtype), run_size, queries)


def assert_generated_stream_matches_model(subject, base, run_size, queries):
    if subject is hybrid_sort_crack_subject:
        # a cracked final piece refuses an inverted range (crack_range raises),
        # which is the final partition's business, not run extraction's
        queries = [(low, high) if None in (low, high) else (min(low, high), max(low, high))
                   for low, high in queries]
    assert_stream_matches_model(subject, base, run_size, queries)


# -- wide keys: the columns a float cast gets wrong, under the planner's bounds ------
#
# The column kinds of ``test_property_exact_keys.py``: int64 keys around
# ``2**60`` (256 apart as floats), int64 holding both ends of its range and
# uint64 past ``2**63``.  The bounds are Python ints and half-integers near a
# key, typed by ``exact_bounds`` as the planner types them.

WIDE = 2**60
INT64 = np.iinfo(np.int64)


def _wide(rng, size):
    return WIDE + rng.integers(-5_000, 5_001, size)


def _extremes(rng, size):
    ends = np.array([INT64.min, INT64.min + 1, -3, 0, 3, INT64.max - 1, INT64.max],
                    dtype=np.int64)
    return np.concatenate([ends, rng.choice(ends, size)])


def _past_2_63(rng, size):
    keys = rng.integers(2**63 - 5_000, 2**63 + 5_001, size, dtype=np.uint64)
    return np.append(keys, np.uint64(np.iinfo(np.uint64).max))


#: column kind -> (dtype, keys(rng, size))
WIDE_KINDS = {
    "int64 around 2**60": (np.int64, _wide),
    "int64 at both ends": (np.int64, _extremes),
    "uint64 past 2**63": (np.uint64, _past_2_63),
}


@st.composite
def wide_bound(draw, keys):
    """None, or a Python int or half-integer within two of a key of ``keys``."""
    shape = draw(st.sampled_from(["none", "int", "half"]))
    if shape == "none":
        return None
    whole = draw(st.sampled_from(keys.tolist())) + draw(st.integers(-2, 2))
    return whole if shape == "int" else whole + 0.5


@st.composite
def wide_stream(draw):
    """``(keys, queries)``: a wide-key column and an unordered query stream."""
    dtype, make = WIDE_KINDS[draw(st.sampled_from(sorted(WIDE_KINDS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    keys = np.asarray(make(rng, draw(st.integers(1, 90))), dtype=dtype)
    queries = draw(st.lists(st.tuples(wide_bound(keys), wide_bound(keys)),
                            min_size=1, max_size=12))
    return keys, queries + draw(st.sampled_from([[], [(None, None)]]))


@given(subject=st.sampled_from(SUBJECTS), case=wide_stream(), run_size=run_size)
@settings(max_examples=150, deadline=None)
# the last run holds one entry and both bounds lie above it
@example(subject=merging_subject,
         case=(WIDE + np.array([5, 1, 3, 2, 9, 7, 4], dtype=np.int64),
               [(WIDE + 6, WIDE + 10), (WIDE + 0.5, WIDE + 4), (None, None)]),
         run_size=3)
def test_wide_keys_match_the_per_run_model(subject, case, run_size):
    keys, queries = case
    typed = [exact_bounds(keys.dtype, low, high) for low, high in queries]
    assert_generated_stream_matches_model(subject, keys, run_size, typed)


# -- run generation and the full-index build alone, across dtypes and key spans ------
#
# Both sort integer keys by packing them into words (see
# ``repro.columnstore.bulk.stable_sort_rows``) only while the key span and the
# row width fit 63 bits together, so the generated keys sit on that limit,
# either side of it, at the ends of their dtype, or bunch into a handful of
# duplicates.  Whatever the layout, the result is the model's: each run (and
# the full index, one run of the whole column) stably sorted.

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint64)
#: row widths: one, two, not a power of two, a power of two, wider than most columns
WIDTHS = (1, 2, 7, 16, 100)
#: lowest keys worth a try in every dtype that holds them
ANCHORS = (0, -1, -2**62, 2**60 + 1, 2**62, 2**63 + 1)


def packing_limit(width):
    """The smallest key span whose words, shifted past ``width`` positions,
    no longer fit 63 bits."""
    return 2 ** (63 - (width - 1).bit_length())


@st.composite
def keyed_rows(draw):
    """``(keys, width)``: a column of any dtype the kernel takes, and a row width."""
    width = draw(st.sampled_from(WIDTHS))
    size = draw(st.integers(0, min(3 * width + 5, 120)))
    dtype = draw(st.sampled_from(INT_DTYPES + (np.float64,)))
    if dtype is np.float64:
        quarters = st.lists(st.integers(-8, 8), min_size=size, max_size=size)
        extremes = st.lists(st.sampled_from([-1e300, -0.0, 0.0, 0.25, 1e300]),
                            min_size=size, max_size=size)
        return np.asarray(draw(quarters | extremes), dtype=np.float64) / 4, width
    info = np.iinfo(dtype)
    whole = int(info.max) - int(info.min)
    limit = packing_limit(width)
    span = min(whole, draw(st.sampled_from([0, 1, 3, limit - 1, limit, whole])
                           | st.integers(0, whole)))
    fits = [a for a in ANCHORS + (int(info.min), int(info.max) - span)
            if info.min <= a <= int(info.max) - span]
    low = draw(st.sampled_from(fits) | st.integers(int(info.min), int(info.max) - span))
    offsets = draw(st.lists(st.sampled_from([0, span]) | st.integers(0, min(span, 3))
                            | st.integers(0, span), min_size=size, max_size=size))
    if size >= 2:  # the span is attained, so the limit is really in play
        at = draw(st.permutations(range(size)))
        offsets[at[0]], offsets[at[1]] = 0, span
    return np.array([low + offset for offset in offsets], dtype=dtype), width


def stable_rows_reference(keys, width):
    """Per row of ``width`` keys, numpy's stable argsort and the keys in its order."""
    positions = np.empty(len(keys), dtype=np.int64)
    for start in range(0, len(keys), width):
        positions[start:start + width] = np.argsort(keys[start:start + width],
                                                    kind="stable")
    row_starts = np.arange(len(keys)) // width * width
    return keys[positions + row_starts], positions


def edge_columns():
    """Spans one short of and exactly at the packing limit, for each width,
    from both ends of int64 and from past 2**63 in uint64."""
    for width in (1, 2, 7, 1_000):
        limit = packing_limit(width)
        for span in (limit - 1, limit):
            # keys bunched at both ends of the span, which they attain
            offsets = (0, 1, 2, span - 2, span - 1, span)
            picks = np.random.default_rng(width).integers(0, 6, size=2 * width + 3)
            lows = [(np.int64, -2**63), (np.int64, 2**63 - 1 - span), (np.int64, 2**60 + 1),
                    (np.uint64, 2**64 - 1 - span), (np.uint64, 0)]
            for dtype, low in lows:
                if low + span <= np.iinfo(dtype).max:
                    keys = np.array([low + offsets[p] for p in picks.tolist()]
                                    + [low + span, low], dtype=dtype)
                    yield pytest.param(keys, width, id=f"{np.dtype(dtype)}-w{width}-"
                                       f"{'in' if span < limit else 'out'}-{low}")
    yield pytest.param(np.array([-2**62, 2**62 - 1, 0, -2**62], dtype=np.int64), 1,
                       id="int64-pm-2**62")
    yield pytest.param(np.array([2**63 + 1, 2**63, 2**64 - 1, 2**63], dtype=np.uint64), 3,
                       id="uint64-past-2**63")
    yield pytest.param(np.empty(0, dtype=np.int64), 1, id="empty")


def assert_runs_match_the_model(keys, width):
    counters = CostCounters()
    runs = RunSet(keys, run_size=width, counters=counters)
    model = ReferenceModel(keys, width)
    want_counters = CostCounters()
    model._generate_runs(want_counters)
    empty = [np.empty(0, dtype=keys.dtype), np.empty(0, dtype=np.int64)]
    want_values, want_rowids = (np.concatenate([run[i] for run in model.runs] or [empty[i]])
                                for i in (0, 1))
    assert runs.values.dtype == keys.dtype and runs.rowids.dtype == np.int64
    assert np.array_equal(runs.values, want_values)
    assert np.array_equal(runs.rowids, want_rowids)
    assert counters.as_dict() == want_counters.as_dict()
    runs.check_invariants(keys)


def assert_full_index_is_a_stable_sort(keys):
    counters = CostCounters()
    index = FullIndex(keys, counters=counters)
    order = np.argsort(keys, kind="stable")
    assert index.sorted_values.dtype == keys.dtype
    assert index.sorted_positions.dtype == np.int64
    assert np.array_equal(index.sorted_values, keys[order])
    assert np.array_equal(index.sorted_positions, order)
    n = len(keys)
    assert counters.as_dict() == CostCounters(
        tuples_scanned=n, tuples_moved=n, comparisons=sort_cost(n),
        bytes_allocated=n * (keys.itemsize + 8), pieces_created=1).as_dict()


def assert_kernel_is_a_stable_argsort(keys, width):
    counters = CostCounters()
    sorted_values, positions = stable_sort_rows(keys, width, counters)
    want_values, want_positions = stable_rows_reference(keys, width)
    assert sorted_values.dtype == keys.dtype and positions.dtype == np.int64
    assert np.array_equal(sorted_values, want_values)
    assert np.array_equal(positions, want_positions)
    rows, tail = divmod(len(keys), width)
    assert counters.as_dict() == CostCounters(
        tuples_moved=len(keys),
        comparisons=rows * sort_cost(width) + (sort_cost(tail) if tail else 0),
    ).as_dict()


@given(keyed=keyed_rows())
@settings(max_examples=400, deadline=None)
def test_the_row_sort_kernel_is_a_stable_argsort_per_row(keyed):
    assert_kernel_is_a_stable_argsort(*keyed)


@given(keyed=keyed_rows())
@settings(max_examples=400, deadline=None)
def test_run_generation_matches_the_per_run_model(keyed):
    assert_runs_match_the_model(*keyed)


@given(keyed=keyed_rows())
@settings(max_examples=200, deadline=None)
def test_a_full_index_is_a_stable_sort_of_the_column(keyed):
    assert_full_index_is_a_stable_sort(keyed[0])


@pytest.mark.parametrize("keys, width", edge_columns())
def test_keys_on_the_packing_limit(keys, width):
    assert_kernel_is_a_stable_argsort(keys, width)
    assert_runs_match_the_model(keys, width)
    assert_full_index_is_a_stable_sort(keys)


def test_open_bounds_stay_open_in_every_stream(rng):
    """An open bound is an infinite end of the merged ranges — before, while
    and after the runs drain — with the model's answers and charges on
    every step, bounds past the data's ends included."""
    base = rng.integers(100, 5_000, size=3_000).astype(np.int64)
    queries = [(None, 400), (4_500.5, None), (None, 1_200), (2_000, None),
               (None, 99), (5_000, None), (None, None), (None, 700), (300, None)]
    for make_subject in SUBJECTS:
        assert_stream_matches_model(make_subject, base, None, queries)
        assert_stream_matches_model(
            make_subject, base.astype(np.float64) / 8, 64,
            [(None if low is None else low / 8, None if high is None else high / 8)
             for low, high in queries])
