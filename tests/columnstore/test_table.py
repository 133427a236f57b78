"""Unit tests for Table."""

import numpy as np
import pytest

from repro.columnstore.column import Column
from repro.columnstore.table import Table


@pytest.fixture
def table():
    return Table(
        "t",
        {
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([10.0, 20.0, 30.0, 40.0]),
        },
    )


class TestSchema:
    def test_row_and_column_access(self, table):
        assert table.row_count == 4
        assert len(table) == 4
        assert set(table.column_names) == {"a", "b"}
        assert isinstance(table["a"], Column)

    def test_add_column_checks_length(self, table):
        with pytest.raises(ValueError, match="rows"):
            table.add_column("c", np.array([1, 2]))

    def test_add_duplicate_column_rejected(self, table):
        with pytest.raises(ValueError, match="already exists"):
            table.add_column("a", np.zeros(4))

    def test_unknown_column_lookup(self, table):
        with pytest.raises(KeyError, match="available"):
            table.column("zzz")

    def test_empty_table_row_count(self):
        assert Table("empty").row_count == 0

    def test_columns_are_aligned(self, table):
        assert table.row_count == len(table["a"]) == len(table["b"])


class TestRowOperations:
    def test_append_rows(self, table):
        table.append_rows({"a": [5, 6], "b": [50.0, 60.0]})
        assert table.row_count == 6
        assert table["a"].values[5] == 6

    def test_append_rows_requires_all_columns(self, table):
        with pytest.raises(ValueError, match="missing"):
            table.append_rows({"a": [5]})

    def test_append_rows_requires_equal_lengths(self, table):
        with pytest.raises(ValueError, match="equal length"):
            table.append_rows({"a": [5, 6], "b": [50.0]})

    def test_fetch_rows(self, table):
        fetched = table.fetch_rows([1, 3], ["a"])
        assert np.array_equal(fetched["a"], [2, 4])
        assert "b" not in fetched

    def test_fetch_rows_all_columns_by_default(self, table):
        fetched = table.fetch_rows([0])
        assert set(fetched) == {"a", "b"}


class TestTombstones:
    def test_delete_tombstones_without_moving_rows(self, table):
        assert table.delete(2) is True
        assert table.delete(0) is True
        assert table.tombstones.tolist() == [0, 2]
        assert table.row_count == 4
        assert table.visible_row_count == 2
        assert np.array_equal(table["a"].values, [1, 2, 3, 4])
        assert table.is_deleted(2) and not table.is_deleted(1)

    def test_repeated_delete_changes_nothing(self, table):
        table.delete(1)
        before = table.tombstones
        assert table.delete(1) is False
        assert table.tombstones is before

    def test_delete_out_of_range_raises(self, table):
        with pytest.raises(KeyError, match="unknown row identifier 4"):
            table.delete(4)
        assert len(table.tombstones) == 0

    def test_a_delete_publishes_a_new_read_only_array(self, table):
        table.delete(3)
        taken = table.tombstones
        table.delete(1)
        assert taken.tolist() == [3]
        assert table.tombstones.tolist() == [1, 3]
        with pytest.raises(ValueError):
            table.tombstones[0] = 0

    def test_delete_many_merges_into_one_sorted_array(self, table):
        table.delete(2)
        table.delete_many((3, 0, 2))
        table.delete_many(())
        assert table.tombstones.tolist() == [0, 2, 3]
        assert not table.tombstones.flags.writeable
        with pytest.raises(KeyError, match="out of range"):
            table.delete_many([1, 4])
        assert table.tombstones.tolist() == [0, 2, 3]

    def test_appended_rows_are_live(self, table):
        table.delete(3)
        table.append_rows({"a": [5], "b": [50.0]})
        assert table.tombstones.tolist() == [3]
        assert table.visible_row_count == 4

    def test_visible_positions_filters_aligned_columns(self, table):
        table.delete(1)
        positions = np.array([3, 1, 0], dtype=np.int64)
        aligned = {"b": np.array([40.0, 20.0, 10.0])}
        visible = table.visible_positions(positions, aligned)
        assert visible.tolist() == [3, 0]
        assert aligned["b"].tolist() == [40.0, 10.0]
