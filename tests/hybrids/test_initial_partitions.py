"""Unit tests for the hybrid initial partitions."""

import numpy as np
import pytest

from repro.core.hybrids.initial_partitions import (
    CrackedInitialPartition,
    RadixInitialPartition,
)
from repro.core.merging.runs import RunSet
from repro.cost.counters import CostCounters


def SortedInitialPartition(values, rowids, counters=None):
    """The hybrids' sorted initial partition is adaptive merging's run set;
    a set of one run is one sorted partition.  It numbers rows by position,
    which is what ``rowids`` is everywhere below."""
    assert np.array_equal(rowids, np.arange(len(values)))
    return RunSet(values, run_size=len(values), counters=counters)


CARVING = [CrackedInitialPartition, RadixInitialPartition]


def make_partition(cls, rng, n=500, **kwargs):
    values = rng.integers(0, 1000, size=n).astype(np.int64)
    rowids = np.arange(n, dtype=np.int64)
    return values, cls(values, rowids, **kwargs)


@pytest.mark.parametrize(
    "cls", [CrackedInitialPartition, SortedInitialPartition, RadixInitialPartition]
)
class TestExtractRange:
    def test_extract_returns_exactly_the_range(self, rng, cls):
        base, partition = make_partition(cls, rng)
        extracted_values, extracted_rowids = partition.extract_range(200, 400)
        assert np.all((extracted_values >= 200) & (extracted_values < 400))
        assert np.array_equal(base[extracted_rowids], extracted_values)
        expected_count = int(((base >= 200) & (base < 400)).sum())
        assert len(extracted_values) == expected_count

    def test_extract_removes_from_partition(self, rng, cls):
        base, partition = make_partition(cls, rng)
        before = len(partition)
        extracted_values, _ = partition.extract_range(200, 400)
        assert len(partition) == before - len(extracted_values)
        assert partition.nbytes == len(partition) * 16

    def test_extract_unbounded_drains_partition(self, rng, cls):
        base, partition = make_partition(cls, rng)
        extracted_values, _ = partition.extract_range(None, None)
        assert len(extracted_values) == len(base)
        assert len(partition) == 0

    def test_extract_disjoint_ranges_partition_content(self, rng, cls):
        base, partition = make_partition(cls, rng)
        first_values, _ = partition.extract_range(0, 300)
        second_values, _ = partition.extract_range(300, 700)
        third_values, _ = partition.extract_range(700, 1001)
        collected = np.concatenate([first_values, second_values, third_values])
        assert sorted(collected.tolist()) == sorted(base.tolist())
        assert len(partition) == 0

    def test_nbytes_positive(self, rng, cls):
        _, partition = make_partition(cls, rng)
        assert partition.nbytes > 0


class TestSpecificBehaviour:
    @pytest.mark.parametrize("cls", CARVING)
    def test_carved_out_range_is_gone(self, rng, cls):
        """The partitions that physically carve tuples out answer a repeated
        range with nothing; the run set leaves its runs in place and relies
        on the caller (the merged-range bookkeeping) never to repeat one."""
        _, partition = make_partition(cls, rng)
        partition.extract_range(200, 400)
        again_values, _ = partition.extract_range(200, 400)
        assert len(again_values) == 0

    def test_sorted_partition_extraction_is_cheap(self, rng):
        base, sorted_partition = make_partition(SortedInitialPartition, rng, n=5000)
        base2, cracked_partition = make_partition(CrackedInitialPartition, rng, n=5000)
        sorted_counters = CostCounters()
        sorted_partition.extract_range(100, 200, sorted_counters)
        cracked_counters = CostCounters()
        cracked_partition.extract_range(100, 200, cracked_counters)
        # the sorted partition only binary-searches; the cracked one must
        # physically partition the whole segment once
        assert sorted_counters.comparisons < cracked_counters.comparisons

    def test_sorted_partition_creation_more_expensive(self, rng):
        values = rng.integers(0, 1000, size=5000).astype(np.int64)
        rowids = np.arange(5000, dtype=np.int64)
        sorted_counters = CostCounters()
        SortedInitialPartition(values, rowids, counters=sorted_counters)
        cracked_counters = CostCounters()
        CrackedInitialPartition(values, rowids, counters=cracked_counters)
        assert sorted_counters.comparisons > cracked_counters.comparisons

    def test_radix_rejects_bad_bits(self, rng):
        values = rng.integers(0, 10, size=10)
        with pytest.raises(ValueError):
            RadixInitialPartition(values, np.arange(10), bits=0)

    def test_cracked_partition_empty(self):
        partition = CrackedInitialPartition(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        values, rowids = partition.extract_range(0, 10)
        assert len(values) == 0
