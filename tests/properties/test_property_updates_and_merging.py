"""Property-based tests for updates, intervals and adaptive merging."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.core.merging.intervals import IntervalSet

#: the merge policies, and the gradual one at three budgets: one pending
#: update per query, a few, and the default
POLICY_BUDGETS = [("ripple", 16), ("gradual", 1), ("gradual", 3), ("gradual", 16)]
POLICY_IDS = ["ripple", "gradual-1", "gradual-3", "gradual-16"]


class TestUpdatableColumnProperties:
    operations = st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 200)),
            st.tuples(st.just("delete"), st.integers(0, 400)),
            st.tuples(st.just("query"), st.tuples(st.integers(0, 200), st.integers(0, 200))),
        ),
        min_size=1,
        max_size=40,
    )

    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    @given(
        base=st.lists(st.integers(0, 200), min_size=1, max_size=150).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        ),
        ops=operations,
    )
    @settings(max_examples=25, deadline=None)
    def test_visible_rows_always_match_model(self, policy, base, ops):
        """Any interleaving of inserts, deletes and queries stays consistent
        (the gradual column merging one update per query)."""
        column = UpdatableCrackedColumn(base, policy=policy, merge_batch=1)
        model = {int(i): int(v) for i, v in enumerate(base)}
        next_id = len(base)
        for kind, payload in ops:
            if kind == "insert":
                rowid = column.insert(payload)
                assert rowid == next_id
                model[rowid] = payload
                next_id += 1
            elif kind == "delete":
                if payload in model:
                    column.delete(payload)
                    del model[payload]
            else:
                low, high = min(payload), max(payload)
                got = set(column.search(low, high).tolist())
                expected = {r for r, v in model.items() if low <= v < high}
                assert got == expected
        column.check_invariants()
        assert sorted(column.visible_values().tolist()) == sorted(model.values())


class TestUpdatePolicyOracleProperties:
    """Both merge policies, the gradual one at several budgets, against a
    brute-force visible-multiset oracle over interleaved streams.

    The operation alphabet deliberately includes ``delete_last_insert``
    (usually a delete of a still-pending insert, which must cancel it) and
    ``delete_again`` (a repeated delete, which must stay idempotent).
    """

    operations = st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 200)),
            st.tuples(st.just("delete"), st.integers(0, 400)),
            st.tuples(st.just("delete_last_insert"), st.just(0)),
            st.tuples(st.just("delete_again"), st.just(0)),
            st.tuples(st.just("query"),
                      st.tuples(st.integers(0, 200), st.integers(0, 200))),
        ),
        min_size=1,
        max_size=50,
    )

    @pytest.mark.parametrize("policy, merge_batch", POLICY_BUDGETS, ids=POLICY_IDS)
    @given(
        base=st.lists(st.integers(0, 200), min_size=1, max_size=120).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        ),
        ops=operations,
    )
    @settings(max_examples=25, deadline=None)
    def test_visible_rows_always_match_oracle(self, policy, merge_batch, base, ops):
        column = UpdatableCrackedColumn(base, policy=policy, merge_batch=merge_batch)
        model = {int(i): int(v) for i, v in enumerate(base)}
        next_id = len(base)
        last_insert = None
        last_delete = None
        for kind, payload in ops:
            if kind == "insert":
                rowid = column.insert(payload)
                assert rowid == next_id
                model[rowid] = payload
                last_insert = rowid
                next_id += 1
            elif kind == "delete":
                if payload in model:
                    column.delete(payload)
                    del model[payload]
                    last_delete = payload
            elif kind == "delete_last_insert":
                if last_insert is not None and last_insert in model:
                    column.delete(last_insert)
                    del model[last_insert]
                    last_delete = last_insert
            elif kind == "delete_again":
                if last_delete is not None and last_delete < len(base):
                    # a repeated delete is idempotent while the first delete
                    # is still pending; once merged, the row is gone and the
                    # rowid is unknown (KeyError) — both are legal, neither
                    # may corrupt state
                    try:
                        column.delete(last_delete)
                    except KeyError:
                        pass
            else:
                low, high = min(payload), max(payload)
                got = set(column.search(low, high).tolist())
                expected = {r for r, v in model.items() if low <= v < high}
                assert got == expected
        column.check_invariants()
        assert sorted(column.visible_values().tolist()) == sorted(model.values())
        assert len(column) == len(model)


#: action mixes for :func:`drive_mixed_stream` (0-1 insert, 2 delete, 3 update,
#: 4-5 select): the balanced default, one where deletes outnumber inserts so
#: the column drains while pending deletes pile up, and one where inserts
#: outnumber every other operation so a merge budget falls behind
MIXES = {"balanced": (0, 1, 2, 3, 4, 5), "delete-heavy": (0, 2, 2, 2, 3, 5),
         "insert-heavy": (0, 0, 1, 1, 2, 5)}


def drive_mixed_stream(column, base, *, skewed, steps, seed, mix):
    """Interleave inserts/deletes/updates/selects on ``column``, checking
    every answer and the rowid every insert or update hands out against a
    dict model, then the visible multiset."""
    model = {int(i): int(v) for i, v in enumerate(base)}
    next_id = len(base)
    rng = np.random.default_rng(seed)

    def draw_value():
        if skewed:
            # hammer the bottom tenth of the domain
            return int(rng.integers(0, 100))
        return int(rng.integers(0, 1000))

    for _ in range(steps):
        action = mix[int(rng.integers(0, 6))]
        if action <= 1:
            value = draw_value()
            assert column.insert(value) == next_id
            model[next_id] = value
            next_id += 1
        elif action == 2 and model:
            victim = int(rng.choice(list(model)))
            column.delete(victim)
            del model[victim]
        elif action == 3 and model:
            victim = int(rng.choice(list(model)))
            value = draw_value()
            assert column.update(victim, value) == next_id
            del model[victim]
            model[next_id] = value
            next_id += 1
        else:
            low = int(rng.integers(0, 950))
            high = low + int(rng.integers(1, 120))
            expected = {r for r, v in model.items() if low <= v < high}
            assert set(column.search(low, high).tolist()) == expected
    column.check_invariants()
    assert sorted(column.visible_values().tolist()) == sorted(model.values())
    assert len(column) == len(model)


class TestMixedStreamOracle:
    """Seeded streams with updates, skewed or uniform inserts and a
    balanced or delete-heavy mix, at every merge policy and budget."""

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "skewed"])
    @pytest.mark.parametrize("policy, merge_batch", POLICY_BUDGETS, ids=POLICY_IDS)
    def test_mixed_stream_matches_the_model(self, policy, merge_batch, skewed, mix):
        rng = np.random.default_rng(17)
        base = rng.integers(0, 1000, size=600).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy=policy, merge_batch=merge_batch)
        drive_mixed_stream(column, base, skewed=skewed, steps=400, seed=23,
                           mix=MIXES[mix])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    def test_a_drained_column_keeps_its_invariants(self, policy, seed):
        # 120 rows under 400 steps in which deletes outrun inserts two to
        # one: the column drains, merges its deletes and takes inserts
        # again, with pending updates left over under either policy
        rng = np.random.default_rng(40 + seed)
        base = rng.integers(0, 100, size=120).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy=policy, merge_batch=3)
        drive_mixed_stream(column, base, skewed=True, steps=400, seed=seed,
                           mix=MIXES["delete-heavy"])


class TestIntervalSetProperties:
    intervals_strategy = st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)).map(
            lambda pair: (min(pair), max(pair))
        ),
        min_size=1,
        max_size=20,
    )

    @given(intervals=intervals_strategy)
    @settings(max_examples=80, deadline=None)
    def test_add_keeps_disjoint_sorted(self, intervals):
        interval_set = IntervalSet()
        for low, high in intervals:
            interval_set.add(low, high)
            interval_set.check_invariants()

    @given(intervals=intervals_strategy, probe=st.floats(0, 100, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_membership_matches_naive_model(self, intervals, probe):
        interval_set = IntervalSet()
        for low, high in intervals:
            interval_set.add(low, high)
        naive = any(low <= probe < high for low, high in intervals)
        assert interval_set.contains_point(probe) == naive

    @given(intervals=intervals_strategy,
           query=st.tuples(st.floats(0, 100, allow_nan=False),
                           st.floats(0, 100, allow_nan=False)).map(
               lambda pair: (min(pair), max(pair))))
    @settings(max_examples=80, deadline=None)
    def test_uncovered_gaps_partition_the_query(self, intervals, query):
        """Covered parts plus uncovered gaps tile the query range exactly."""
        interval_set = IntervalSet()
        for low, high in intervals:
            interval_set.add(low, high)
        query_low, query_high = query
        gaps = interval_set.uncovered(query_low, query_high)
        # gaps are inside the query, disjoint, and no gap point is covered
        previous_end = query_low
        for gap_low, gap_high in gaps:
            assert query_low <= gap_low <= gap_high <= query_high
            assert gap_low >= previous_end
            previous_end = gap_high
            midpoint = (gap_low + gap_high) / 2
            if gap_high > gap_low:
                assert not interval_set.contains_point(midpoint)


class TestAdaptiveMergingProperties:
    @given(
        values=st.lists(st.integers(0, 300), min_size=1, max_size=200).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        ),
        queries=st.lists(
            st.tuples(st.integers(-10, 310), st.integers(-10, 310)).map(
                lambda pair: (min(pair), max(pair))
            ),
            min_size=1,
            max_size=10,
        ),
        run_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_merging_matches_scan_and_preserves_content(self, values, queries, run_size):
        index = AdaptiveMergingIndex(values, run_size=run_size)
        for low, high in queries:
            expected = set(np.flatnonzero((values >= low) & (values < high)).tolist())
            assert set(index.search(low, high).tolist()) == expected
            index.check_invariants()
