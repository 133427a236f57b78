"""Property-based tests: every strategy is equivalent to a scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.strategies import available_strategies, create_strategy


values_arrays = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

query_lists = st.lists(
    st.tuples(st.integers(-10, 510), st.integers(-10, 510)).map(
        lambda pair: (min(pair), max(pair))
    ),
    min_size=1,
    max_size=8,
)


def reference(values, low, high):
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


@pytest.mark.parametrize("name", available_strategies())
@given(values=values_arrays, queries=query_lists)
@settings(max_examples=25, deadline=None)
def test_strategy_equivalent_to_scan(name, values, queries):
    """For any data and any query sequence, results equal the scan answer."""
    strategy = create_strategy(name, values)
    for low, high in queries:
        got = set(strategy.search(low, high).tolist())
        assert got == reference(values, low, high), (
            f"{name} diverged from the scan answer on [{low}, {high})"
        )
    strategy.close()


@given(values=values_arrays, queries=query_lists)
@settings(max_examples=25, deadline=None)
def test_strategies_agree_with_each_other(values, queries):
    """All strategies return the same position sets for the same queries."""
    strategies = [create_strategy(name, values) for name in
                  ("cracking", "adaptive-merging", "hybrid-crack-sort")]
    for low, high in queries:
        answers = [set(s.search(low, high).tolist()) for s in strategies]
        assert answers[0] == answers[1] == answers[2]
