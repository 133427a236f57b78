"""Unit tests for the logical cost counters."""

from dataclasses import asdict

import pytest

from repro.cost.counters import CostCounters


class TestRecording:
    def test_new_counters_are_zero(self):
        counters = CostCounters()
        assert set(asdict(counters).values()) == {0}

    def test_record_scan_accumulates(self):
        counters = CostCounters()
        counters.record_scan(10)
        counters.record_scan(5)
        assert counters.tuples_scanned == 15

    def test_record_move_and_comparisons(self):
        counters = CostCounters()
        counters.record_move(7)
        counters.record_comparisons(3)
        assert counters.tuples_moved == 7
        assert counters.comparisons == 3

    def test_record_random_access_default_is_one(self):
        counters = CostCounters()
        counters.record_random_access()
        assert counters.random_accesses == 1

    def test_record_allocation_and_pieces(self):
        counters = CostCounters()
        counters.record_allocation(1024)
        counters.record_pieces(2)
        assert counters.bytes_allocated == 1024
        assert counters.pieces_created == 2


class TestArithmetic:
    def test_addition_adds_fields(self):
        total = CostCounters(tuples_scanned=5, comparisons=2)
        total += CostCounters(tuples_scanned=3, tuples_moved=7)
        assert total == CostCounters(tuples_scanned=8, tuples_moved=7, comparisons=2)

    def test_subtraction_gives_deltas(self):
        before = CostCounters(tuples_scanned=5)
        after = CostCounters(tuples_scanned=12, comparisons=4)
        delta = after - before
        assert delta.tuples_scanned == 7
        assert delta.comparisons == 4

    def test_inplace_addition(self):
        a = CostCounters(tuples_scanned=1)
        b = CostCounters(tuples_scanned=2, random_accesses=3)
        a += b
        assert a.tuples_scanned == 3
        assert a.random_accesses == 3

    def test_addition_with_non_counters_is_not_implemented(self):
        counters = CostCounters()
        with pytest.raises(TypeError):
            counters += 5
        with pytest.raises(TypeError):
            counters - 5

    def test_a_delta_is_independent(self):
        original = CostCounters(tuples_scanned=5)
        delta = original - CostCounters()
        original.record_scan(10)
        assert delta.tuples_scanned == 5
        assert original.tuples_scanned == 15

    def test_a_self_delta_is_zero(self):
        counters = CostCounters(tuples_scanned=5, comparisons=3, pieces_created=2)
        assert counters - counters == CostCounters()


class TestExport:
    def test_fields_in_declaration_order(self):
        counters = CostCounters(tuples_scanned=1, tuples_moved=2, comparisons=3)
        assert asdict(counters) == {
            "tuples_scanned": 1,
            "tuples_moved": 2,
            "comparisons": 3,
            "random_accesses": 0,
            "bytes_allocated": 0,
            "pieces_created": 0,
        }

