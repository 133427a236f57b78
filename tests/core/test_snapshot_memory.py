"""A snapshot is read and written without copying the table.

``Database.open`` used to read the snapshot file into one ``bytes``, slice
each section into a second, copy that into an array and copy the array
again into its column: a ``tracemalloc`` peak of 2.5x the table's bytes.
Each section is now read straight into the array its column keeps, so the
peak is the table itself plus the manifest.  ``Database.snapshot`` used to
copy each column for the capture, again to encode it and a third time to
join the file: 3x the table.  It now writes each section from the column's
own array, which allocates next to nothing.  No clock, in the style of
``tests/core/test_cold_crack_memory.py``.
"""

import tracemalloc

import numpy as np

from repro.engine.database import Database

ROWS = 1_000_000
DOMAIN = 10_000_000


def traced_peak(action):
    """``(what action() returned, the tracemalloc peak while it ran)``."""
    tracemalloc.start()
    try:
        result = action()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(table):
    return sum(column.values.nbytes for column in table.columns.values())


def durable_database(data_dir):
    rng = np.random.default_rng(31)
    database = Database("db", data_dir=data_dir)
    table = database.create_table("t", {
        "key": rng.integers(0, DOMAIN, size=ROWS),
        "payload": rng.random(ROWS),
    })
    database.set_indexing("t", "key", "updatable-cracking")
    return database, column_bytes(table)


def test_a_snapshot_is_written_from_the_columns(tmp_path):
    database, table_bytes = durable_database(tmp_path)
    try:
        _, peak = traced_peak(database.snapshot)
    finally:
        database.close()
    assert peak < 0.1 * table_bytes, f"{peak / table_bytes:.3f}x the table"


def test_a_snapshot_is_read_into_the_columns(tmp_path):
    database, table_bytes = durable_database(tmp_path)
    database.snapshot()
    database.close()
    reopened, peak = traced_peak(lambda: Database.open(tmp_path))
    try:
        assert reopened.recovery_report.snapshot_path is not None
        assert column_bytes(reopened.table("t")) == table_bytes
    finally:
        reopened.close()
    assert peak < 1.3 * table_bytes, f"{peak / table_bytes:.3f}x the table"
