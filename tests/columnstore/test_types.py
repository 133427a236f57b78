"""Unit tests for the column type descriptors."""

import numpy as np
import pytest

import math

from repro.columnstore.types import (
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    SUPPORTED_TYPES,
    dtype_by_name,
    exact_bounds,
    exact_key,
    infer_dtype,
)

I64 = np.dtype(np.int64)


class TestDataType:
    def test_widths(self):
        assert INT32.width_bytes == 4
        assert INT64.width_bytes == 8
        assert FLOAT32.width_bytes == 4
        assert FLOAT64.width_bytes == 8

    def test_validate_array_passthrough(self):
        data = np.arange(5, dtype=np.int64)
        assert INT64.validate_array(data) is data

    def test_validate_array_converts(self):
        data = np.arange(5, dtype=np.int32)
        converted = INT64.validate_array(data)
        assert converted.dtype == np.int64

    def test_validate_array_rejects_lossy_float_to_int(self):
        with pytest.raises(TypeError, match="losslessly"):
            INT64.validate_array(np.array([1.5, 2.5]))

    def test_validate_array_accepts_whole_floats(self):
        converted = INT64.validate_array(np.array([1.0, 2.0]))
        assert converted.dtype == np.int64

    def test_validate_array_refuses_what_the_type_cannot_hold(self):
        with pytest.raises(ValueError, match="int32"):
            INT32.validate_array(np.array([2**40]))
        with pytest.raises(ValueError, match="int64"):
            INT64.validate_array(np.array([2**63 + 5], dtype=np.uint64))
        with pytest.raises(ValueError, match="int64"):
            INT64.validate_array(np.array([2.0**63]))
        with pytest.raises(TypeError, match="losslessly"):
            INT64.validate_array(np.array([np.nan]))
        assert INT32.validate_array(np.array([-2**31, 2**31 - 1])).dtype == np.int32

    def test_empty_allocates_the_dtype(self):
        assert len(INT64.empty(7)) == 7 and INT64.empty(7).dtype == np.int64
        assert FLOAT64.empty(3).dtype == np.float64


class TestInference:
    def test_infer_int64(self):
        assert infer_dtype(np.array([1, 2, 3])) is INT64

    def test_infer_float64(self):
        assert infer_dtype(np.array([1.0, 2.0])) is FLOAT64

    def test_infer_exact_dtypes(self):
        assert infer_dtype(np.array([1], dtype=np.int32)) is INT32
        assert infer_dtype(np.array([1.0], dtype=np.float32)) is FLOAT32

    def test_infer_bool_maps_to_int32(self):
        assert infer_dtype(np.array([True, False])) is INT32

    def test_infer_rejects_strings(self):
        with pytest.raises(TypeError, match="unsupported"):
            infer_dtype(np.array(["a", "b"]))

    def test_dtype_by_name(self):
        assert dtype_by_name("int64") is INT64
        with pytest.raises(ValueError, match="unknown data type"):
            dtype_by_name("decimal")

    def test_supported_types_registry(self):
        assert INT64 in SUPPORTED_TYPES and FLOAT64 in SUPPORTED_TYPES


class TestKeys:
    """The one typing rule: bounds and keys of a column's dtype."""

    def test_integer_bounds_round_up_exactly(self):
        assert exact_bounds(I64, 2.5, 7.0) == (3, 7)
        assert exact_bounds(I64, float(2**60 + 1), 2**60 + 1) == (2**60, 2**60 + 1)
        low, high = exact_bounds(I64, np.int64(4), np.float64(-0.5))
        assert (low, high) == (4, 0) and type(low) is int and type(high) is int

    def test_integer_bounds_stay_inside_the_dtype(self):
        top, bottom = 2**63 - 1, -2**63
        assert exact_bounds(I64, -math.inf, math.inf) == (None, None)
        assert exact_bounds(I64, None, 2**63) == (None, None)
        assert exact_bounds(I64, -2**70, -2**70) == (bottom, bottom)
        assert exact_bounds(I64, 2**63, None) == (top, top)
        assert exact_bounds(I64, math.inf, math.inf) == (top, top)
        assert exact_bounds(np.dtype(np.int32), 2.0**40, None) == (2**31 - 1, 2**31 - 1)

    def test_float_bounds_stay_floats(self):
        low, high = exact_bounds(np.dtype(np.float64), 2, np.float32(0.5))
        assert (low, high) == (2.0, 0.5) and type(low) is float
        assert exact_bounds(np.dtype(np.float64), -math.inf, None) == (-math.inf, None)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_a_nan_bound_is_refused(self, dtype):
        with pytest.raises(ValueError, match="NaN"):
            exact_bounds(np.dtype(dtype), float("nan"), None)

    def test_keys_are_whole_numbers_in_range(self):
        assert exact_key(I64, 5.0) == 5 and type(exact_key(I64, 5.0)) is int
        assert exact_key(np.uint64, np.uint64(2**64 - 1)) == 2**64 - 1
        with pytest.raises(TypeError, match="non-integer"):
            exact_key(I64, 2.5)
        with pytest.raises(TypeError, match="non-integer"):
            exact_key(I64, math.inf)
        with pytest.raises(ValueError, match="'k'.*int32"):
            exact_key(np.int32, 2**40, "k")
        with pytest.raises(ValueError, match="NaN"):
            exact_key(np.float64, float("nan"))
        assert exact_key(np.float32, 0.1) == float(np.float32(0.1))
