"""Property/oracle suite for adaptive repartitioning.

The acceptance property: with ``repartition=True`` the partitioned columns
remain *bit-identical* to their unpartitioned oracles for any interleaved
insert/delete/update/select stream — skewed or uniform — for any partition
count, execution mode and merge policy.  Splits and merges reorganise load
spread only; answers, rowids and visible multisets never change.

On top of answer identity the suite pins the split/merge invariants:

* partition row ranges stay ordered and cover the base column, and split
  descendants sharing base rows carry *disjoint* value bounds
  (:meth:`check_invariants` of the partitioned column);
* rowids are stable across a split: the visible rowid set before a split
  equals the set after it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.partitioned import (
    PartitionedCrackedColumn,
    PartitionedUpdatableCrackedColumn,
)
from repro.cost.counters import CostCounters

PARTITION_COUNTS = [1, 3, 8]

#: execution configurations a partitioned column must be indistinguishable
#: across: sequential and thread fan-out (really on the pool: the tests that
#: loop over these take the ``pooled_fan_out`` fixture)
EXECUTIONS = [
    ("seq", {"parallel": False}),
    ("thread", {"parallel": True}),
]

#: low row cap so every configuration provokes splits during the stream
ROW_CAP = 150


#: action mixes for :func:`drive_mixed_stream` (0-1 insert, 2 delete, 3 update,
#: 4-5 select): the balanced default, and one where deletes outnumber inserts
#: so split fragments drain to zero visible rows while keeping their bounds
BALANCED = (0, 1, 2, 3, 4, 5)
DELETE_HEAVY = (0, 2, 2, 2, 3, 5)


def drive_mixed_stream(reference, partitioned, base, *, skewed, steps, seed,
                       mix=BALANCED):
    """Interleave inserts/deletes/updates/selects, checking every answer.

    Returns the partitioned column's accumulated cost counters so callers
    can pin them bit-identical across execution modes.
    """
    model = {int(i): int(v) for i, v in enumerate(base)}
    next_id = len(base)
    rng = np.random.default_rng(seed)
    counters = CostCounters()

    def draw_value():
        if skewed:
            # hammer the bottom tenth of the domain (hot partition)
            return int(rng.integers(0, 100))
        return int(rng.integers(0, 1000))

    for _ in range(steps):
        action = mix[int(rng.integers(0, 6))]
        if action <= 1:
            value = draw_value()
            got_ref = reference.insert(value)
            got_part = partitioned.insert(value, counters)
            assert got_ref == got_part == next_id
            model[next_id] = value
            next_id += 1
        elif action == 2 and model:
            victim = int(rng.choice(list(model)))
            reference.delete(victim)
            partitioned.delete(victim, counters)
            del model[victim]
        elif action == 3 and model:
            victim = int(rng.choice(list(model)))
            value = draw_value()
            got_ref = reference.update(victim, value)
            got_part = partitioned.update(victim, value, counters)
            assert got_ref == got_part == next_id
            del model[victim]
            model[next_id] = value
            next_id += 1
        else:
            low = int(rng.integers(0, 950))
            high = low + int(rng.integers(1, 120))
            expected = {r for r, v in model.items() if low <= v < high}
            assert set(reference.search(low, high).tolist()) == expected
            assert set(partitioned.search(low, high, counters).tolist()) == expected
    reference.check_invariants()
    partitioned.check_invariants()
    assert sorted(partitioned.visible_values().tolist()) == sorted(model.values())
    assert len(partitioned) == len(model)
    return counters


class TestUpdatableRepartitioningOracle:
    """Adaptive columns vs the unpartitioned oracle, every configuration."""

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_mixed_stream_bit_identical(self, partitions, policy, skewed,
                                        pooled_fan_out):
        rng = np.random.default_rng(17)
        base = rng.integers(0, 1000, size=600).astype(np.int64)
        outcomes = {}
        for label, execution in EXECUTIONS:
            reference = UpdatableCrackedColumn(base, policy=policy, merge_batch=4)
            with PartitionedUpdatableCrackedColumn(
                base, partitions=partitions, policy=policy,
                merge_batch=4, repartition=True, max_partition_rows=ROW_CAP,
                **execution,
            ) as partitioned:
                counters = drive_mixed_stream(
                    reference, partitioned, base,
                    skewed=skewed, steps=250, seed=23 + partitions,
                )
                # the cap (well below base size) forces real repartitioning in
                # every configuration, so the oracle above covered split paths
                assert partitioned.partition_splits > 0
                assert all(len(p) <= ROW_CAP for p in partitioned.partitions)
                outcomes[label] = (
                    counters,
                    partitioned.partition_splits,
                    partitioned.partition_merges,
                    partitioned.partition_count,
                )
        # logical cost accounting (and the repartitioning it drives) is
        # execution-mode independent: the fan-out reports the same totals
        assert outcomes["thread"] == outcomes["seq"]

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_relative_threshold_bounds_skew(self, partitions):
        # no hard cap: the split_threshold alone must bound max/mean rows
        rng = np.random.default_rng(5)
        base = rng.integers(0, 1000, size=900).astype(np.int64)
        reference = UpdatableCrackedColumn(base)
        partitioned = PartitionedUpdatableCrackedColumn(
            base, partitions=partitions, repartition=True, split_threshold=2.0
        )
        drive_mixed_stream(
            reference, partitioned, base, skewed=True, steps=400, seed=31
        )
        if partitions > 1:
            sizes = [len(p) for p in partitioned.partitions]
            mean_rows = sum(sizes) / len(sizes)
            assert max(sizes) <= 2.0 * mean_rows + 1

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_delete_heavy_stream_keeps_invariants(self, partitions, seed):
        # regression: a fragment drained to 0 visible rows was skipped by
        # insert routing, and its sibling's bounds widened over its range
        rng = np.random.default_rng(40 + seed)
        base = rng.integers(0, 100, size=120).astype(np.int64)
        reference = UpdatableCrackedColumn(base, merge_batch=3)
        partitioned = PartitionedUpdatableCrackedColumn(
            base, partitions=partitions, merge_batch=3,
            repartition=True, max_partition_rows=40,
        )
        drive_mixed_stream(
            reference, partitioned, base, skewed=True, steps=400, seed=seed,
            mix=DELETE_HEAVY,
        )
        assert partitioned.partition_splits > 0

    def test_rowids_stable_across_split(self):
        rng = np.random.default_rng(2)
        base = rng.integers(0, 1000, size=400).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=2, repartition=True, max_partition_rows=250
        )
        column.search(0, 1000)  # learn bounds, crack a little
        before = set(column.search(None, None).tolist())
        inserted = set()
        splits_before = column.partition_splits
        while column.partition_splits == splits_before:
            inserted.add(column.insert(int(rng.integers(0, 100))))
        after = set(column.search(None, None).tolist())
        assert after == before | inserted
        column.check_invariants()

    def test_split_siblings_have_disjoint_bounds(self):
        rng = np.random.default_rng(8)
        base = rng.integers(0, 1000, size=300).astype(np.int64)
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=1, repartition=True, max_partition_rows=200
        )
        column.search(0, 1000)
        for _ in range(200):
            column.insert(int(rng.integers(0, 1000)))
        assert column.partition_splits > 0
        partitions = column.partitions
        for left, right in zip(partitions, partitions[1:]):
            left_high = left.effective_bounds[1]
            right_low = right.effective_bounds[0]
            assert left_high is not None and right_low is not None
            assert left_high < right_low
        column.check_invariants()

    def test_merge_after_drain_restores_balance(self):
        rng = np.random.default_rng(11)
        base = rng.integers(0, 1000, size=500).astype(np.int64)
        reference = UpdatableCrackedColumn(base)
        column = PartitionedUpdatableCrackedColumn(
            base, partitions=2, repartition=True, max_partition_rows=180
        )
        model = {int(i): int(v) for i, v in enumerate(base)}
        next_id = len(base)
        column.search(0, 1000)
        reference.search(0, 1000)
        for _ in range(250):  # flood one value range, forcing splits
            value = int(rng.integers(0, 100))
            reference.insert(value)
            column.insert(value)
            model[next_id] = value
            next_id += 1
        assert column.partition_splits > 0
        for victim in list(model):  # then drain almost everything
            if len(model) <= 20:
                break
            reference.delete(victim)
            column.delete(victim)
            del model[victim]
        column.search(0, 1000)
        reference.search(0, 1000)
        assert column.partition_merges > 0
        for low in range(0, 1000, 90):
            expected = set(reference.search(low, low + 90).tolist())
            assert set(column.search(low, low + 90).tolist()) == expected
        column.check_invariants()


class TestReadOnlyRepartitioningOracle:
    """Query-skew repartitioning of the read-only partitioned column."""

    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_zoom_in_stream_matches_cracked_column(self, partitions,
                                                   pooled_fan_out):
        rng = np.random.default_rng(13)
        # clustered values (position-correlated) make the zoom-in stream
        # concentrate on few partitions, the workload repartitioning targets
        values = (np.arange(4000) * 5
                  + rng.integers(0, 500, size=4000)).astype(np.int64)
        outcomes = {}
        for label, execution in EXECUTIONS:
            whole = CrackedColumn(values)
            with PartitionedCrackedColumn(
                values, partitions=partitions, repartition=True, **execution
            ) as partitioned:
                counters = CostCounters()
                low, high = 0.0, 5000.0
                for _ in range(80):
                    width = max((high - low) * 0.95, 40.0)
                    query_low = low + (high - low - width) / 2
                    expected = whole.search(query_low, query_low + width)
                    actual = partitioned.search(
                        query_low, query_low + width, counters
                    )
                    assert set(actual.tolist()) == set(expected.tolist())
                    low, high = query_low, query_low + width
                if partitions > 1:
                    assert partitioned.partition_splits > 0
                partitioned.check_invariants()
                outcomes[label] = (counters, partitioned.partition_splits,
                                   partitioned.partition_count)
        assert outcomes["thread"] == outcomes["seq"]

    def test_row_cap_splits_before_first_crack(self):
        values = np.arange(2000).astype(np.int64)
        column = PartitionedCrackedColumn(
            values, partitions=2, repartition=True, max_partition_rows=400
        )
        column.search(100, 200)
        assert all(len(p) <= 400 for p in column.partitions)
        expected = set(range(100, 200))
        assert set(column.search(100, 200).tolist()) == expected
        column.check_invariants()


values_arrays = st.lists(
    st.integers(min_value=-500, max_value=500), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(-500, 500)),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(
            st.just("select"),
            st.tuples(st.integers(-600, 600), st.integers(-600, 600)).map(
                lambda pair: (min(pair), max(pair))
            ),
        ),
    ),
    min_size=1,
    max_size=30,
)


@given(
    values=values_arrays,
    stream=operations,
    partitions=st.sampled_from(PARTITION_COUNTS),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_repartitioned_equivalence(values, stream, partitions):
    """Arbitrary streams: adaptive column == unpartitioned oracle."""
    reference = UpdatableCrackedColumn(values)
    partitioned = PartitionedUpdatableCrackedColumn(
        values, partitions=partitions, repartition=True,
        max_partition_rows=max(8, len(values) // 2), split_threshold=1.5,
    )
    live = set(range(len(values)))
    for kind, payload in stream:
        if kind == "insert":
            live.add(reference.insert(payload))
            partitioned.insert(payload)
        elif kind == "delete":
            victim = payload % (len(values) + len(live) + 1)
            if victim in live:
                reference.delete(victim)
                partitioned.delete(victim)
                live.discard(victim)
        else:
            low, high = payload
            expected = reference.search(low, high)
            actual = partitioned.search(low, high)
            assert np.array_equal(np.sort(actual), np.sort(expected))
    assert np.array_equal(
        np.sort(partitioned.visible_values()),
        np.sort(reference.visible_values()),
    )
    partitioned.check_invariants()
