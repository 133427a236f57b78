"""Fixed-width column data types, and how a value becomes a key of one.

A column-store stores every attribute as a dense array of fixed-width values.
This module provides lightweight type descriptors wrapping NumPy dtypes plus
validation and inference helpers.  Only fixed-width numeric types are
supported, mirroring the storage model that database cracking relies on
(cracking reorganises arrays in place, which requires fixed-width values).

It is also the one place that decides what scalar type a key, a bound or a
pivot has.  :func:`exact_bounds` turns the bounds of a select ``low <= v <
high`` into bounds of a column's dtype that select exactly the same values
(the planner applies it once per selection, so no access path converts a
bound again), and :func:`exact_key` is the rule for a value to be stored
(access-path inserts and table appends both apply it).  On an integer column
both are Python ints: Python compares ``int`` with ``float`` exactly, where
``float(2**60 + 1)`` is ``2**60``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np

#: a range bound; ``None`` is unbounded
Bound = Optional[Union[int, float]]

#: (lowest, highest) of every integer dtype, as Python ints
_INTEGER_LIMITS = {
    np.dtype(code): (int(np.iinfo(code).min), int(np.iinfo(code).max))
    for code in np.typecodes["AllInteger"]
}


def _integer_limits(dtype) -> Optional[Tuple[int, int]]:
    """The integer range of ``dtype``; None for a float dtype."""
    return _INTEGER_LIMITS.get(dtype if isinstance(dtype, np.dtype) else np.dtype(dtype))


def exact_key(dtype, value, column: str = "") -> Union[int, float]:
    """``value`` as a key of a ``dtype`` column (``column`` names it in the
    messages), or raise.

    An integer column takes whole numbers in its dtype's range, exact at any
    magnitude, and returns them as ``int``: anything else that is not a whole
    number (NaN and the infinities included) raises ``TypeError``, a whole
    number outside the range ``ValueError``.  A float column returns the value
    as it stores it and refuses NaN with ``ValueError``: no bounded range
    holds a NaN, so it would never be found, nor a pending insert merged.
    """
    dtype = np.dtype(dtype)
    where = f"column {column!r}" if column else f"a {dtype.name} column"
    limits = _integer_limits(dtype)
    if limits is None:
        key = dtype.type(value).item()
        if math.isnan(key):
            raise ValueError(f"cannot store NaN in {where}")
        return key
    if isinstance(value, (float, np.floating)):
        integral = value.is_integer()
    else:
        integral = isinstance(value, (int, np.integer, np.bool_))
    if not integral:
        raise TypeError(f"cannot store non-integer value {value!r} in integer {where}")
    key = int(value)
    if not limits[0] <= key <= limits[1]:
        raise ValueError(
            f"cannot store {value!r} in {where}: outside the range of {dtype.name}")
    return key


def _real(bound) -> float:
    """``bound`` as a Python float; NaN refused."""
    real = float(bound)
    if math.isnan(real):
        raise ValueError("a range bound cannot be NaN")
    return real


def _ceil(bound) -> Union[int, float]:
    """The least integer at or above ``bound`` (±inf stay infinite)."""
    if type(bound) is int:
        return bound
    if not isinstance(bound, float):
        if isinstance(bound, (int, np.integer)):
            return int(bound)
        bound = float(bound)
    try:
        return math.ceil(bound)
    except OverflowError:  # an infinity
        return bound
    except ValueError:
        raise ValueError("a range bound cannot be NaN") from None


def exact_bounds(dtype, low: Bound, high: Bound) -> Tuple[Bound, Bound]:
    """``(low, high)`` as bounds of a ``dtype`` column selecting exactly the
    values ``v`` with ``low <= v < high`` (``None`` is unbounded).

    On an integer dtype both bounds are rounded up (``v >= b`` and ``v < b``
    hold for the same integers as for ``ceil(b)``) and come back as Python
    ints in the dtype's range: ``-inf`` opens the lower bound, ``inf`` or
    anything past the top the upper one, a bound below the bottom is clamped
    to it, and a lower bound past the top makes the empty range ``[top,
    top)``.  On a float dtype they come back as Python floats.  A NaN bound
    raises ``ValueError``.  No numpy call for a ``numpy.dtype`` and scalars.
    """
    limits = _integer_limits(dtype)
    if limits is None:
        return (None if low is None else _real(low),
                None if high is None else _real(high))
    lowest, highest = limits
    if low is not None:
        low = _ceil(low)
        if low < lowest:
            low = None if low == -math.inf else lowest
        elif low > highest:
            return highest, highest
    if high is not None:
        high = _ceil(high)
        if high > highest:
            high = None
        elif high < lowest:
            high = lowest
    return low, high


@dataclass(frozen=True)
class DataType:
    """Descriptor for a fixed-width column type."""

    name: str
    numpy_dtype: np.dtype
    width_bytes: int

    def validate_array(self, array: np.ndarray) -> np.ndarray:
        """Coerce ``array`` to this type, raising on lossy conversions.

        An integer type takes what :func:`exact_key` takes — whole numbers
        in its range — so a table append refuses exactly the values an
        access-path insert refuses.
        """
        array = np.asarray(array)
        if array.dtype == self.numpy_dtype:
            return array
        if self.numpy_dtype.kind in "iu" and len(array):
            if array.dtype.kind == "f" and not np.array_equal(np.trunc(array), array):
                raise TypeError(f"cannot losslessly convert float data to {self.name}")
            # whole numbers by now: the extremes decide the range
            exact_key(self.numpy_dtype, array.min())
            exact_key(self.numpy_dtype, array.max())
        return array.astype(self.numpy_dtype)

    def empty(self, capacity: int) -> np.ndarray:
        """Allocate an uninitialised array of ``capacity`` elements."""
        return np.empty(int(capacity), dtype=self.numpy_dtype)


INT32 = DataType("int32", np.dtype(np.int32), 4)
INT64 = DataType("int64", np.dtype(np.int64), 8)
FLOAT32 = DataType("float32", np.dtype(np.float32), 4)
FLOAT64 = DataType("float64", np.dtype(np.float64), 8)

_BY_NAME = {t.name: t for t in (INT32, INT64, FLOAT32, FLOAT64)}
_BY_DTYPE = {t.numpy_dtype: t for t in (INT32, INT64, FLOAT32, FLOAT64)}


def dtype_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its name (``"int64"`` etc.)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown data type {name!r}; supported: {sorted(_BY_NAME)}"
        ) from None


def infer_dtype(values: Union[np.ndarray, Iterable]) -> DataType:
    """Infer the narrowest supported :class:`DataType` for ``values``."""
    array = np.asarray(values)
    if array.dtype in _BY_DTYPE:
        return _BY_DTYPE[array.dtype]
    if np.issubdtype(array.dtype, np.integer):
        return INT64
    if np.issubdtype(array.dtype, np.floating):
        return FLOAT64
    if array.dtype == bool:
        return INT32
    raise TypeError(
        f"unsupported column dtype {array.dtype}; only fixed-width numeric "
        "types are supported by the column-store substrate"
    )


def exact_type(dtype: np.dtype) -> DataType:
    """The :class:`DataType` of exactly ``dtype``: a table type, or — for a
    column that never enters a table, such as an access path's private copy
    of a uint64 array — an untabled one of the same width."""
    dtype = np.dtype(dtype)
    return _BY_DTYPE.get(dtype) or DataType(dtype.name, dtype, dtype.itemsize)


SUPPORTED_TYPES = tuple(_BY_NAME.values())
