"""Fixed-width dense columns (BAT-style storage).

A :class:`Column` stores one attribute as a dense NumPy array — the *tail* in
MonetDB terminology.  Row identifiers (the *head*) are implicit: the value at
array position *i* belongs to row *i*.  Operators therefore exchange
position lists ("candidate lists") rather than materialised tuples, which is
the late-reconstruction execution model database cracking builds on.

Columns support appends (with geometric growth) and expose zero-copy views
of their valid region; a deleted row is a tombstone its table keeps, so no
value ever moves.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from repro.columnstore.types import DataType, infer_dtype
from repro.cost.counters import CostCounters


class Column:
    """A dense, fixed-width, append-only column of numeric values."""

    __slots__ = ("name", "dtype", "_data", "_length")

    def __init__(
        self,
        values: Union[np.ndarray, Iterable],
        name: str = "",
        dtype: Optional[DataType] = None,
    ) -> None:
        array = np.asarray(values)
        if array.ndim != 1:
            raise ValueError("columns must be one-dimensional")
        self.dtype = dtype or infer_dtype(array)
        self.name = name
        self._data = self.dtype.validate_array(array).copy()
        self._length = len(self._data)

    # -- construction ------------------------------------------------------

    @classmethod
    def adopt(cls, values: np.ndarray, name: str, dtype: DataType,
              length: Optional[int] = None) -> "Column":
        """A column around ``values`` itself, with no copy: the caller hands
        over an array nothing else writes, such as one a snapshot section
        or a journal record's payload was just copied into.  It must be a
        writable, contiguous one-dimensional array of ``dtype``.  The
        column holds its first ``length`` elements (all of them by
        default); the rest is room its appends fill before it grows."""
        if values.dtype != dtype.numpy_dtype:
            raise TypeError(
                f"cannot adopt a {values.dtype} array as a {dtype.name} column")
        if values.ndim != 1 or not values.flags.c_contiguous:
            raise ValueError("an adopted column must be one contiguous dimension")
        if not values.flags.writeable:
            raise ValueError("an adopted column must be writable")
        length = len(values) if length is None else int(length)
        if not 0 <= length <= len(values):
            raise ValueError(
                f"cannot adopt {length} rows of a {len(values)}-element array")
        column = cls.__new__(cls)
        column.name = name
        column.dtype = dtype
        column._data = values
        column._length = length
        return column

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def values(self) -> np.ndarray:
        """Zero-copy view of the valid region of the column."""
        return self._data[: self._length]

    # -- mutation ------------------------------------------------------------

    def append(self, values: Union[np.ndarray, Iterable, int, float],
               counters: Optional[CostCounters] = None) -> None:
        """Append one value or an array of values, growing geometrically."""
        array = np.atleast_1d(np.asarray(values))
        array = self.dtype.validate_array(array)
        needed = self._length + len(array)
        if needed > len(self._data):
            new_capacity = max(needed, max(16, 2 * len(self._data)))
            grown = self.dtype.empty(new_capacity)
            grown[: self._length] = self._data[: self._length]
            self._data = grown
        self._data[self._length : needed] = array
        self._length = needed
        if counters is not None:
            counters.record_move(len(array))
            counters.record_allocation(len(array) * self.dtype.width_bytes)
