"""Tables: collections of aligned columns and their tombstones."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.columnstore.column import Column
from repro.cost.counters import CostCounters


def _frozen(positions: np.ndarray) -> np.ndarray:
    positions.flags.writeable = False
    return positions


class Table:
    """A named collection of equal-length :class:`~repro.columnstore.column.Column`.

    Rows are identified by their position (0-based, dense).  All columns of a
    table are kept aligned: appending rows appends to every column.  Deleting
    a row never moves one: its position becomes a *tombstone*, so every other
    row keeps its identifier, and readers filter tombstoned positions out
    (:meth:`visible_positions`).

    The tombstones are one sorted int64 array that is never mutated: a
    delete (whose caller holds the table's write gate) publishes a new,
    read-only array, so a reader that took :attr:`tombstones` keeps a
    consistent view with no lock.  Appends leave it alone — positions past
    the last tombstone are live.
    """

    def __init__(self, name: str, columns: Optional[Mapping[str, Union[Column, np.ndarray, Iterable]]] = None) -> None:
        self.name = name
        self._columns: Dict[str, Column] = {}
        self._tombstones = _frozen(np.empty(0, dtype=np.int64))
        if columns:
            for column_name, values in columns.items():
                self.add_column(column_name, values)

    # -- column management ---------------------------------------------------

    def add_column(self, name: str, values: Union[Column, np.ndarray, Iterable]) -> Column:
        """Add a column; its length must match existing columns."""
        if name in self._columns:
            raise ValueError(f"column {name!r} already exists in table {self.name!r}")
        column = values if isinstance(values, Column) else Column(values, name=name)
        column.name = name
        if self._columns and len(column) != self.row_count:
            raise ValueError(
                f"column {name!r} has {len(column)} rows, expected {self.row_count}"
            )
        self._columns[name] = column
        return column

    def column(self, name: str) -> Column:
        """Return the column named ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.name!r}; "
                f"available: {sorted(self._columns)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    @property
    def columns(self) -> Dict[str, Column]:
        return dict(self._columns)

    @property
    def row_count(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __len__(self) -> int:
        return self.row_count

    # -- row operations --------------------------------------------------------

    def append_rows(self, rows: Mapping[str, Union[np.ndarray, Iterable, int, float]],
                    counters: Optional[CostCounters] = None) -> None:
        """Append rows given as a mapping column-name -> values.

        Every column of the table must be present and all value arrays must
        have the same length (scalars are broadcast to length one).
        """
        # every value is validated *before* anything is mutated, so a failed
        # conversion cannot leave columns with unequal lengths (the append
        # below must be all-or-nothing)
        for name, array in self.validate_rows(rows).items():
            self._columns[name].append(array, counters=counters)

    def validate_rows(
        self, rows: Mapping[str, Union[np.ndarray, Iterable, int, float]]
    ) -> Dict[str, np.ndarray]:
        """``rows`` as :meth:`append_rows` would store them — one array of
        its column's type per column — or the error it would raise."""
        if set(rows) != set(self._columns):
            missing = set(self._columns) - set(rows)
            extra = set(rows) - set(self._columns)
            raise ValueError(
                f"append_rows expects exactly the table's columns; "
                f"missing={sorted(missing)}, unexpected={sorted(extra)}"
            )
        arrays = {name: np.atleast_1d(np.asarray(values)) for name, values in rows.items()}
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise ValueError(f"all appended columns must have equal length, got {lengths}")
        return {
            name: self._columns[name].dtype.validate_array(array)
            for name, array in arrays.items()
        }

    def fetch_rows(self, positions: Union[np.ndarray, Iterable[int]],
                   column_names: Optional[Iterable[str]] = None,
                   counters: Optional[CostCounters] = None) -> Dict[str, np.ndarray]:
        """Materialise the requested columns for the given row positions."""
        positions = np.asarray(positions, dtype=np.int64)
        names = list(column_names) if column_names is not None else self.column_names
        result = {}
        for name in names:
            column = self.column(name)
            if counters is not None:
                counters.record_random_access(len(positions))
            result[name] = column.values[positions]
        return result

    # -- tombstones --------------------------------------------------------------

    @property
    def tombstones(self) -> np.ndarray:
        """Sorted positions of the deleted rows (read-only int64 array)."""
        return self._tombstones

    @property
    def visible_row_count(self) -> int:
        """Rows not deleted."""
        return self.row_count - len(self._tombstones)

    def is_deleted(self, position: int) -> bool:
        """True when the row at ``position`` has been deleted."""
        tombstones = self._tombstones
        slot = int(tombstones.searchsorted(position))
        return slot < len(tombstones) and bool(tombstones[slot] == position)

    def delete(self, position: int) -> bool:
        """Tombstone the row at ``position``; False when it already was.

        The caller holds the table's write gate; readers keep whichever
        array they took (see the class docstring).
        """
        position = int(position)
        if not 0 <= position < self.row_count:
            raise KeyError(f"unknown row identifier {position} in table {self.name!r}")
        # one search finds both whether the row is deleted and where its
        # tombstone goes; slices and a concatenate cost a quarter of what
        # np.insert does per call
        tombstones = self._tombstones
        slot = int(tombstones.searchsorted(position))
        if slot < len(tombstones) and tombstones[slot] == position:
            return False
        self._tombstones = _frozen(np.concatenate(
            (tombstones[:slot], (position,), tombstones[slot:])
        ))
        return True

    def delete_many(self, positions: Iterable[int]) -> None:
        """Tombstone every row in ``positions`` at once (recovery's bulk
        form of :meth:`delete`; rows already deleted stay deleted)."""
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) and not (
            0 <= positions.min() and positions.max() < self.row_count
        ):
            raise KeyError(f"row identifiers out of range in table {self.name!r}")
        self._tombstones = _frozen(np.union1d(self._tombstones, positions))

    def visible_positions(
        self, positions: np.ndarray, aligned: Optional[dict] = None
    ) -> np.ndarray:
        """Filter tombstoned rows out of a position list (no-op when none),
        and with the same mask out of the ``aligned`` column arrays (name ->
        values in the row order of ``positions``); its entries are replaced."""
        tombstones = self._tombstones
        if len(tombstones) == 0 or len(positions) == 0:
            return positions
        keep = ~np.isin(positions, tombstones)
        for name, values in (aligned or {}).items():
            aligned[name] = values[keep]
        return positions[keep]
