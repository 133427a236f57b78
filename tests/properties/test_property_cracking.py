"""Property-based tests (hypothesis) for the cracking core."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.cracker_index import CrackerIndex
from repro.core.cracking.crack_engine import crack_range


values_arrays = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=300
).map(lambda xs: np.asarray(xs, dtype=np.int64))

query_bounds = st.tuples(
    st.integers(min_value=-1100, max_value=1100),
    st.integers(min_value=-1100, max_value=1100),
).map(lambda pair: (min(pair), max(pair)))

query_lists = st.lists(query_bounds, min_size=1, max_size=15)


def reference(values, low, high):
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


class TestCrackedColumnProperties:
    @given(values=values_arrays, queries=query_lists)
    @settings(max_examples=60, deadline=None)
    def test_search_always_matches_scan(self, values, queries):
        """Any query sequence: cracking returns exactly what a scan returns."""
        cracked = CrackedColumn(values)
        for low, high in queries:
            assert set(cracked.search(low, high).tolist()) == reference(values, low, high)

    @given(values=values_arrays, queries=query_lists)
    @settings(max_examples=60, deadline=None)
    def test_content_preserved_and_pieces_respect_bounds(self, values, queries):
        """No query sequence loses, duplicates or corrupts values."""
        cracked = CrackedColumn(values)
        for low, high in queries:
            cracked.search(low, high)
        cracked.check_invariants()

    @given(values=values_arrays, queries=query_lists)
    @settings(max_examples=40, deadline=None)
    def test_piece_count_bounded_by_two_per_query(self, values, queries):
        cracked = CrackedColumn(values)
        for index, (low, high) in enumerate(queries, start=1):
            cracked.search(low, high)
            assert cracked.piece_count <= 1 + 2 * index


class TestCrackerIndexProperties:
    @given(
        boundaries=st.lists(
            st.tuples(st.integers(-100, 100), st.integers(0, 200)), max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_boundaries_stay_ordered_or_are_rejected(self, boundaries):
        """add_boundary either keeps the index consistent or raises ValueError."""
        index = CrackerIndex(200)
        for value, position in boundaries:
            try:
                index.add_boundary(value, position)
            except ValueError:
                pass
            index.check_invariants()

    @given(values=values_arrays, queries=query_lists)
    @settings(max_examples=40, deadline=None)
    def test_crack_range_region_is_exactly_the_answer(self, values, queries):
        """The region [start, end) contains exactly the qualifying values."""
        working = values.copy()
        rowids = np.arange(len(values), dtype=np.int64)
        index = CrackerIndex(len(values))
        for low, high in queries:
            start, end = crack_range(working, rowids, index, low, high)
            segment = working[start:end]
            assert np.all((segment >= low) & (segment < high))
            assert len(segment) == len(reference(values, low, high))
