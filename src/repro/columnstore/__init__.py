"""MonetDB-style column-store substrate.

Database cracking "exploits and in fact relies on several column-store
properties, such as storage on fixed width dense arrays, bulk processing and
late tuple reconstruction" (EDBT 2012 tutorial, Section 2).  This package
provides exactly that substrate:

* :class:`~repro.columnstore.column.Column` — a fixed-width dense array
  (NumPy-backed) with an optional *head* of row identifiers, mirroring
  MonetDB's Binary Association Tables (BATs);
* :class:`~repro.columnstore.table.Table` — a set of aligned columns;
* :mod:`~repro.columnstore.bulk` — vectorised physical kernels (range
  filters, in-place two/three-way partitioning, row sorts) used by scans
  and by the cracking/merging algorithms;
* :mod:`~repro.columnstore.select` — bulk select operators returning
  position lists (late materialisation);
* :mod:`~repro.columnstore.reconstruct` — late tuple reconstruction;
* :mod:`~repro.columnstore.operators` — aggregation;
* :mod:`~repro.columnstore.storage` — memory accounting and storage budgets
  (used by partial cracking).
"""

from repro.columnstore.column import Column
from repro.columnstore.table import Table
from repro.columnstore.types import DataType, FLOAT64, INT32, INT64, infer_dtype
from repro.columnstore.storage import StorageBudget

__all__ = [
    "Column",
    "Table",
    "DataType",
    "INT32",
    "INT64",
    "FLOAT64",
    "infer_dtype",
    "StorageBudget",
]
