"""Unit tests for sideways cracking (cracker maps, adaptive alignment)."""

import numpy as np
import pytest

from repro.columnstore.storage import StorageBudget
from repro.core.cracking.sideways import SidewaysCracker
from repro.cost.counters import CostCounters


def reference_rows(table, low, high, head="a"):
    values = table[head].values
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= values >= low
    if high is not None:
        mask &= values < high
    return np.flatnonzero(mask)


class TestSelectProject:
    def test_projection_values_are_correct_and_aligned(self, sample_table):
        cracker = SidewaysCracker(sample_table, head="a")
        rowids, result = cracker.select_project(1000, 3000, {}, ["b", "c"])
        expected_rows = set(reference_rows(sample_table, 1000, 3000).tolist())
        assert set(rowids.tolist()) == expected_rows
        assert np.array_equal(result["b"], sample_table["b"].values[rowids])
        assert np.array_equal(result["c"], sample_table["c"].values[rowids])
        cracker.check_invariants()

    def test_head_attribute_can_be_projected(self, sample_table):
        cracker = SidewaysCracker(sample_table, head="a")
        rowids, result = cracker.select_project(0, 5000, {}, ["a", "b"])
        assert np.array_equal(result["a"], sample_table["a"].values[rowids])

    def test_maps_created_lazily_per_attribute(self, sample_table):
        cracker = SidewaysCracker(sample_table, head="a")
        assert sorted(cracker.maps) == []
        cracker.select_project(0, 1000, {}, ["b"])
        assert sorted(cracker.maps) == ["b"]
        cracker.select_project(0, 1000, {}, ["c"])
        assert set(cracker.maps) == {"b", "c"}

    def test_unknown_head_or_tail_rejected(self, sample_table):
        with pytest.raises(KeyError):
            SidewaysCracker(sample_table, head="zzz")
        cracker = SidewaysCracker(sample_table, head="a")
        with pytest.raises(KeyError):
            cracker.get_map("zzz")

    def test_alignment_after_late_map_creation(self, sample_table):
        """A map created after several queries catches up via adaptive alignment."""
        cracker = SidewaysCracker(sample_table, head="a")
        for low in (0, 2000, 4000, 6000):
            cracker.select_project(low, low + 1500, {}, ["b"])
        # now query a different projection: its map must replay the history
        rowids, result = cracker.select_project(2500, 3500, {}, ["c"])
        assert set(rowids.tolist()) == set(reference_rows(sample_table, 2500, 3500).tolist())
        assert np.array_equal(result["c"], sample_table["c"].values[rowids])
        # the newly created map caught up with the whole crack history
        assert cracker.maps["c"].applied_cracks == len(cracker.crack_history)
        # a final query touching both maps brings them into full alignment
        both_rowids, both = cracker.select_project(1000, 2000, {}, ["b", "c"])
        assert np.array_equal(both["b"], sample_table["b"].values[both_rowids])
        assert np.array_equal(both["c"], sample_table["c"].values[both_rowids])
        maps = [cracker.maps["b"], cracker.maps["c"]]
        assert maps[0].applied_cracks == maps[1].applied_cracks == len(cracker.crack_history)
        assert np.array_equal(maps[0].rowids, maps[1].rowids)
        cracker.check_invariants()


class TestMultiColumnSelection:
    def test_select_project_where(self, sample_table):
        cracker = SidewaysCracker(sample_table, head="a")
        rowids, result = cracker.select_project(
            1000, 6000, {"b": (100, 500)}, ["c", "d"]
        )
        a = sample_table["a"].values
        b = sample_table["b"].values
        expected = np.flatnonzero((a >= 1000) & (a < 6000) & (b >= 100) & (b < 500))
        assert set(rowids.tolist()) == set(expected.tolist())
        assert np.array_equal(result["c"], sample_table["c"].values[rowids])
        assert np.array_equal(result["d"], sample_table["d"].values[rowids])

    def test_select_project_where_random_access_free(self, sample_table):
        """Sideways cracking never gathers from the base table."""
        cracker = SidewaysCracker(sample_table, head="a")
        cracker.select_project(1000, 6000, {"b": (100, 500)}, ["c"], None)
        counters = CostCounters()
        cracker.select_project(1000, 6000, {"b": (100, 500)}, ["c"], counters)
        assert counters.random_accesses == 0

    def test_multiple_predicates(self, sample_table):
        cracker = SidewaysCracker(sample_table, head="a")
        rowids, _ = cracker.select_project(
            0, 9000, {"b": (0, 800), "d": (10, 40)}, ["b"]
        )
        a = sample_table["a"].values
        b = sample_table["b"].values
        d = sample_table["d"].values
        expected = np.flatnonzero((a < 9000) & (b < 800) & (d >= 10) & (d < 40))
        assert set(rowids.tolist()) == set(expected.tolist())


class TestStorageBoundedMaps:
    def test_budget_evicts_maps(self, sample_table):
        one_map_bytes = (
            sample_table["a"].values.nbytes + sample_table["b"].values.nbytes
            + 8 * sample_table.row_count
        )
        budget = StorageBudget(limit_bytes=int(one_map_bytes * 1.5))
        cracker = SidewaysCracker(sample_table, head="a", budget=budget)
        cracker.select_project(0, 1000, {}, ["b"])
        cracker.select_project(0, 1000, {}, ["c"])
        cracker.select_project(0, 1000, {}, ["d"])
        assert cracker.evictions >= 1
        assert cracker.nbytes <= budget.limit_bytes
        # evicted maps are transparently re-created when needed again
        rowids, result = cracker.select_project(500, 700, {}, ["b"])
        assert np.array_equal(result["b"], sample_table["b"].values[rowids])
