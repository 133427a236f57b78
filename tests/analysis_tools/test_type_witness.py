"""Tests for the @typed_kernel declaration and the runtime type witness."""

import numpy as np
import pytest

from repro.analysis_tools.guards import typed_kernel
from repro.analysis_tools.type_witness import (
    TypeConformanceViolation,
    disable_type_witness,
    enable_type_witness,
    parse_buffer_spec,
    type_witness,
)


@pytest.fixture(autouse=True)
def _witness_off_between_tests():
    disable_type_witness()
    yield
    disable_type_witness()


@typed_kernel(buffers={"values": "numeric"}, mutates=("values",))
def _negate(values):
    values *= -1
    return values


@typed_kernel(buffers={"values": "float64", "payload": "numeric*?"})
def _total(values, payload=None):
    extras = sum(float(p.sum()) for p in payload) if payload else 0.0
    return float(values.sum()) + extras


class TestDeclaration:
    def test_declaration_is_attached(self):
        assert _negate.__typed_kernel__ is True
        assert _negate.__typed_buffers__ == {"values": "numeric"}
        assert _negate.__typed_mutates__ == ("values",)

    def test_each_buffer_names_its_own_spec(self):
        @typed_kernel(buffers={"left": "int64", "right": "numeric?"})
        def merge(left, right):
            return left, right

        assert merge.__typed_buffers__ == {"left": "int64", "right": "numeric?"}

    def test_unknown_spec_is_rejected(self):
        with pytest.raises(ValueError, match="unknown buffer spec"):
            typed_kernel(buffers={"values": "complex-ish"})

    def test_mutates_must_name_a_declared_buffer(self):
        with pytest.raises(ValueError, match="not a declared buffer"):
            typed_kernel(buffers={"values": "numeric"}, mutates=("other",))

    def test_declared_buffer_must_be_a_parameter(self):
        with pytest.raises(ValueError, match="no such parameter"):
            @typed_kernel(buffers={"missing": "numeric"})
            def kernel(values):
                return values

    def test_undecorated_function_declares_nothing(self):
        def plain(values):
            return values

        assert not hasattr(plain, "__typed_buffers__")

    def test_spec_suffixes_parse(self):
        assert parse_buffer_spec("int64?*") == ("int64", True, True)
        assert parse_buffer_spec("numeric") == ("numeric", False, False)
        with pytest.raises(TypeError):
            parse_buffer_spec("no-such-dtype")


class TestWitnessDisarmed:
    def test_disarmed_kernel_skips_all_checks(self):
        assert type_witness() is None
        # a list argument would violate the contract, but nothing checks it
        assert _total(np.array([1.0, 2.0]), payload=None) == 3.0


class TestWitnessRaise:
    def test_conforming_call_passes_and_is_counted(self):
        witness = enable_type_witness()
        values = np.array([1.0, -2.0])
        _negate(values)
        assert values.tolist() == [-1.0, 2.0]
        assert witness.calls_checked == 1
        assert witness.violations() == []

    def test_wrong_exact_dtype_raises(self):
        enable_type_witness()
        with pytest.raises(TypeConformanceViolation, match="dtype"):
            _total(np.array([1, 2], dtype=np.int32))

    def test_object_dtype_raises(self):
        enable_type_witness()
        with pytest.raises(TypeConformanceViolation, match="object dtype"):
            _negate(np.array([1, None], dtype=object))

    def test_non_contiguous_view_raises(self):
        enable_type_witness()
        with pytest.raises(TypeConformanceViolation, match="contiguous"):
            _negate(np.arange(10.0)[::2])

    def test_two_dimensional_buffer_raises(self):
        enable_type_witness()
        with pytest.raises(TypeConformanceViolation, match="flat"):
            _negate(np.ones((2, 2)))

    def test_read_only_mutated_buffer_raises(self):
        enable_type_witness()
        frozen = np.arange(4.0)
        frozen.setflags(write=False)
        with pytest.raises(TypeConformanceViolation, match="read-only"):
            _negate(frozen)

    def test_none_needs_the_optional_suffix(self):
        enable_type_witness()
        assert _total(np.array([1.0]), payload=None) == 1.0
        with pytest.raises(TypeConformanceViolation, match="None"):
            _negate(None)

    def test_container_accepts_list_and_bare_array_shorthand(self):
        enable_type_witness()
        values = np.array([1.0])
        assert _total(values, payload=[np.array([2.0]), np.array([3.0])]) == 6.0
        assert _total(values, payload=np.array([4.0])) == 5.0
        with pytest.raises(TypeConformanceViolation, match="container"):
            _total(values, payload={"not": "a container"})

    def test_object_array_may_not_escape_the_return(self):
        enable_type_witness()

        @typed_kernel(buffers={"values": "numeric"})
        def boxes(values):
            return values.astype(object)

        with pytest.raises(TypeConformanceViolation, match="escaped"):
            boxes(np.array([1.0]))

    def test_writing_a_buffer_outside_mutates_raises(self):
        enable_type_witness()

        @typed_kernel(buffers={"values": "numeric", "rowids": "int64"},
                      mutates=("values",))
        def swap_first_two(values, rowids):
            values[[0, 1]] = values[[1, 0]]
            rowids[[0, 1]] = rowids[[1, 0]]

        with pytest.raises(TypeConformanceViolation,
                           match="wrote buffer 'rowids', which it does not "
                                 "list in mutates="):
            swap_first_two(np.array([2.0, 1.0]), np.array([0, 1]))

    def test_writing_an_undeclared_container_element_raises(self):
        enable_type_witness()

        @typed_kernel(buffers={"values": "numeric", "payload": "numeric*"})
        def zero_payload(values, payload):
            payload[1][:] = 0
            return float(values.sum())

        payload = [np.array([1.0]), np.array([2.0])]
        with pytest.raises(TypeConformanceViolation, match="'payload'"):
            zero_payload(np.array([1.0]), payload)

    def test_a_kernel_that_hands_its_input_back_unwritten_passes(self):
        witness = enable_type_witness()

        @typed_kernel(buffers={"values": "numeric"})
        def identity(values):
            return values

        values = np.array([3.0, 1.0])
        assert identity(values) is values
        assert witness.violations() == []
