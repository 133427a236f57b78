"""Unit tests for CrackedColumn (the adaptive select operator)."""

import numpy as np
import pytest

from repro.core.cracking.cracked_column import CrackedColumn
from repro.cost.counters import CostCounters


class TestBasics:
    def test_search_matches_reference(self, medium_values, reference):
        cracked = CrackedColumn(medium_values)
        for low, high in [(0, 5000), (40_000, 60_000), (90_000, 100_000), (123, 456)]:
            assert set(cracked.search(low, high).tolist()) == reference(
                medium_values, low, high
            )
        cracked.check_invariants()

    def test_search_rows_hold_the_qualifying_values(self, small_values, reference):
        cracked = CrackedColumn(small_values)
        result = small_values[cracked.search(10, 40)]
        expected = sorted(small_values[list(reference(small_values, 10, 40))])
        assert sorted(result.tolist()) == expected

    def test_search_counts_every_qualifying_row(self, small_values, reference):
        cracked = CrackedColumn(small_values)
        assert len(cracked.search(20, 80)) == len(reference(small_values, 20, 80))

    def test_accepts_column_objects(self, small_column):
        cracked = CrackedColumn(small_column)
        assert cracked.name == "key"
        assert len(cracked) == len(small_column)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError):
            CrackedColumn(np.zeros((2, 2)))

    def test_base_column_never_modified(self, small_values):
        original = small_values.copy()
        cracked = CrackedColumn(small_values)
        cracked.search(10, 50)
        cracked.search(30, 70)
        assert np.array_equal(small_values, original)

    def test_unbounded_queries(self, small_values, reference):
        cracked = CrackedColumn(small_values)
        assert set(cracked.search(None, 50).tolist()) == reference(small_values, None, 50)
        assert set(cracked.search(50, None).tolist()) == reference(small_values, 50, None)
        assert len(cracked.search(None, None)) == len(small_values)

    def test_empty_column(self):
        cracked = CrackedColumn(np.empty(0, dtype=np.int64))
        assert len(cracked.search(0, 10)) == 0


class TestLazyCopy:
    def test_copy_deferred_to_first_query(self, small_values):
        cracked = CrackedColumn(small_values)
        assert not cracked.materialised
        assert cracked.nbytes == 0
        counters = CostCounters()
        cracked.search(10, 20, counters)
        assert cracked.materialised
        # the copy was charged to the first query
        assert counters.tuples_moved >= len(small_values)

    def test_updatable_copy_charged_to_no_operation(self, small_values):
        """An updatable column charges its copy to no operation, and its
        first search builds it cracked: the arrays and the charges of one
        that copied up front, the copy excepted."""
        cracked = CrackedColumn(small_values, supports_updates=True)
        assert not cracked.materialised and cracked.nbytes == 0
        eager = CrackedColumn(small_values, supports_updates=True)
        eager._materialise(None)
        counters, expected = CostCounters(), CostCounters()
        assert np.array_equal(cracked.search(10, 20, counters),
                              eager.search(10, 20, expected))
        assert cracked.materialised
        assert counters == expected
        assert counters.bytes_allocated == 0
        assert np.array_equal(cracked.values, eager.values)
        assert np.array_equal(cracked.rowids, eager.rowids)

    def test_knows_rowid_of_a_base_row_leaves_the_copy_to_the_first_search(
            self, small_values):
        """``knows_rowid`` answers from the base: the first search still
        makes the cracker-column copy and is charged for it, as if nobody
        had asked."""
        asked, untouched = CrackedColumn(small_values), CrackedColumn(small_values)
        assert asked.knows_rowid(17)
        assert not asked.materialised and asked.nbytes == 0
        charged, expected = CostCounters(), CostCounters()
        assert np.array_equal(asked.search(10, 20, charged),
                              untouched.search(10, 20, expected))
        assert charged == expected
        assert charged.tuples_scanned >= len(small_values) <= charged.tuples_moved
        assert charged.bytes_allocated == asked.values.nbytes + asked.rowids.nbytes

    def test_visible_values_leave_the_copy_to_the_first_search(self):
        """``visible_values`` of a lazy column answers from the base: nothing
        can be pending on it, so the first search still builds the cracker
        column and is charged for it (it used to be built here, charged to
        no one)."""
        values = np.random.default_rng(5).integers(0, 500, 1_000)
        asked, untouched = CrackedColumn(values), CrackedColumn(values)
        assert np.array_equal(asked.visible_values(), values)
        assert not asked.materialised and asked.nbytes == 0
        charged, expected = CostCounters(), CostCounters()
        assert np.array_equal(asked.search(100, 200, charged),
                              untouched.search(100, 200, expected))
        assert charged == expected
        assert charged.tuples_moved == 2_000 and charged.bytes_allocated == 16_000


class TestAdaptiveBehaviour:
    def test_piece_count_grows_with_queries(self, medium_values):
        cracked = CrackedColumn(medium_values)
        assert cracked.piece_count == 1
        cracked.search(10_000, 20_000)
        assert cracked.piece_count == 3
        cracked.search(50_000, 60_000)
        assert cracked.piece_count == 5
        # at most two new pieces per query
        cracked.search(15_000, 55_000)
        assert cracked.piece_count <= 7

    def test_per_query_cost_decreases(self, medium_values):
        cracked = CrackedColumn(medium_values)
        rng = np.random.default_rng(3)
        costs = []
        for _ in range(200):
            low = int(rng.integers(0, 90_000))
            counters = CostCounters()
            cracked.search(low, low + 5_000, counters)
            costs.append(counters.tuples_moved + counters.tuples_scanned)
        assert np.mean(costs[-20:]) < np.mean(costs[:2]) / 5
        cracked.check_invariants()

    def test_first_query_cheaper_than_full_sort(self, medium_values):
        """Cracking's first query does a copy + one partition pass, not a sort."""
        cracked = CrackedColumn(medium_values)
        counters = CostCounters()
        cracked.search(10_000, 20_000, counters)
        n = len(medium_values)
        full_sort_comparisons = n * np.log2(n)
        assert counters.comparisons < full_sort_comparisons / 3

    def test_crack_at_manual_boundary(self, small_values):
        cracked = CrackedColumn(small_values)
        position = cracked.crack_at(50)
        assert np.all(cracked.values[:position] < 50)
        assert np.all(cracked.values[position:] >= 50)

    def test_queries_processed_counter(self, small_values):
        cracked = CrackedColumn(small_values)
        cracked.search(0, 10)
        cracked.search(5, 20)
        cracked.search_many([(3, 8)], [None])
        assert cracked.queries_processed == 3

    def test_converges_to_fully_sorted_with_many_queries(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 200, size=400)
        cracked = CrackedColumn(values)
        # a boundary at every integer value makes each piece single-valued,
        # so the cracker column ends up completely sorted
        for low in range(0, 200):
            cracked.search(low, low + 1)
        cracked.check_invariants()
        assert cracked.is_fully_sorted()


class TestQueryAccounting:
    def test_every_range_increments_queries_processed(self, small_values):
        """Regression: a select entry (``count``, since deleted) used to skip
        the queries_processed counter; every range answered counts, on the
        one-range route and on the one-pass batch alike."""
        cracked = CrackedColumn(small_values)
        assert cracked.queries_processed == 0
        cracked.search(0, 10)
        assert cracked.queries_processed == 1
        cracked.search_many([(0, 10)], [None])
        cracked.search_many([(5, 15), (20, 30)], [None, None])
        assert cracked.queries_processed == 4

    def test_a_batch_answers_what_single_searches_answer(self, medium_values):
        batched = CrackedColumn(medium_values)
        searching = CrackedColumn(medium_values)
        rng = np.random.default_rng(17)
        for _ in range(10):
            ranges = [(low, low + 1_000)
                      for low in rng.integers(0, 90_000, 2).tolist()]
            answers = batched.search_many(ranges, [None, None])
            for answer, (low, high) in zip(answers, ranges):
                assert np.array_equal(answer, searching.search(low, high))
        assert batched.queries_processed == searching.queries_processed == 20
