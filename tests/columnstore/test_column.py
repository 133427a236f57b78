"""Unit tests for the dense Column."""

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.columnstore.types import INT64
from repro.cost.counters import CostCounters


class TestConstruction:
    def test_basic_construction(self, small_values):
        column = Column(small_values, name="key")
        assert len(column) == len(small_values)
        assert column.name == "key"
        assert np.array_equal(column.values, small_values)

    def test_construction_copies_input(self, small_values):
        column = Column(small_values)
        small_values[0] = -999
        assert column.values[0] != -999

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Column(np.zeros((3, 3)))

    def test_empty_column(self):
        column = Column(np.empty(0, dtype=np.int64), name="e")
        assert len(column) == 0 and column.dtype is INT64

    def test_width_of_the_dtype(self):
        column = Column(np.arange(10, dtype=np.int64))
        assert column.dtype.width_bytes * len(column) == column.values.nbytes == 80


class TestMutation:
    def test_append_scalar_and_array(self):
        column = Column(np.array([1, 2, 3], dtype=np.int64))
        column.append(4)
        column.append(np.array([5, 6]))
        assert np.array_equal(column.values, [1, 2, 3, 4, 5, 6])

    def test_append_grows_geometrically(self):
        column = Column(np.arange(4, dtype=np.int64))
        moves = 0
        for value in range(100):
            before = column.values
            column.append(value)
            moves += not np.shares_memory(before, column.values)
        assert len(column) == 104
        assert moves <= 4  # 4 -> 16 -> 32 -> 64 -> 128

    def test_append_records_counters(self):
        counters = CostCounters()
        column = Column(np.arange(4, dtype=np.int64))
        column.append(np.arange(10), counters=counters)
        assert counters.tuples_moved == 10
        assert counters.bytes_allocated == 80

    def test_a_column_built_from_another_is_independent(self):
        column = Column(np.array([1, 2, 3], dtype=np.int64), name="orig")
        clone = Column(column.values, name="clone")
        clone.append(4)
        assert len(column) == 3
        assert clone.name == "clone"


class TestValues:
    def test_values_is_a_view_of_the_valid_region(self):
        column = Column(np.array([5, 1, 9], dtype=np.int64))
        column.append(2)
        assert column.values.tolist() == [5, 1, 9, 2]
        column.values[0] = 7
        assert column.values.tolist() == [7, 1, 9, 2]

    def test_an_empty_column_grows_on_append(self):
        column = Column(np.empty(0, dtype=np.int64))
        assert column.values.size == 0
        column.append(5)
        assert column.values.tolist() == [5]


class TestAdopt:
    """``Column.adopt`` keeps the array it is handed: no copy."""

    def test_adopts_without_copying(self):
        values = np.arange(10, dtype=np.int64)
        column = Column.adopt(values, "key", INT64)
        assert column.name == "key" and column.dtype is INT64
        assert np.shares_memory(column.values, values)
        assert len(column) == 10

    def test_an_append_grows_out_of_the_adopted_array(self):
        values = np.arange(4, dtype=np.int64)
        column = Column.adopt(values, "key", INT64)
        column.append([7, 8])
        assert column.values.tolist() == [0, 1, 2, 3, 7, 8]
        assert values.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("values, error", [
        (np.arange(4, dtype=np.int32), TypeError),
        (np.zeros((2, 2), dtype=np.int64), ValueError),
        (np.arange(8, dtype=np.int64)[::2], ValueError),
    ], ids=["dtype", "two-dimensional", "strided"])
    def test_refuses_an_array_it_cannot_keep_as_is(self, values, error):
        with pytest.raises(error):
            Column.adopt(values, "key", INT64)

    def test_refuses_a_read_only_array(self):
        values = np.arange(4, dtype=np.int64)
        values.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            Column.adopt(values, "key", INT64)
