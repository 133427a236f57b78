"""Unit tests for storage budgets."""

import numpy as np
import pytest

from repro import Database, Query
from repro.columnstore.storage import StorageBudget, StorageExceededError


class TestStorageBudget:
    def test_unlimited_budget(self):
        budget = StorageBudget()
        assert budget.can_allocate(10**12)
        budget.reserve(10**9)
        assert budget.can_allocate(10**15)

    def test_reserve_and_release(self):
        budget = StorageBudget(limit_bytes=100)
        budget.reserve(60)
        assert budget.used_bytes == 60
        assert budget.can_allocate(40) and not budget.can_allocate(41)
        budget.release(20)
        assert budget.used_bytes == 40

    def test_reserve_over_budget_raises(self):
        budget = StorageBudget(limit_bytes=100)
        budget.reserve(80)
        with pytest.raises(StorageExceededError):
            budget.reserve(30)

    def test_release_never_goes_negative(self):
        budget = StorageBudget(limit_bytes=100)
        budget.release(50)
        assert budget.used_bytes == 0

    def test_negative_amounts_rejected(self):
        budget = StorageBudget(limit_bytes=100)
        with pytest.raises(ValueError):
            budget.reserve(-1)
        with pytest.raises(ValueError):
            budget.release(-1)


class TestIndexBytes:
    """A database reports each installed path's auxiliary bytes beside its
    mode (what a memory tracker used to keep)."""

    def test_a_path_reports_its_bytes_once_built(self):
        database = Database("index-bytes")
        database.create_table("t", {"x": np.arange(1_000, dtype=np.int64)})
        database.set_indexing("t", "x", "cracking")
        [record] = database.physical_design_report()
        assert record["nbytes"] == 0  # the cracker column is built by a query
        with database.session() as session:
            session.execute(Query.range_query("t", "x", 10, 20))
        [record] = database.physical_design_report()
        assert record["nbytes"] == database.access_path("t", "x").nbytes >= 16 * 1_000

    def test_a_scan_reports_no_bytes(self):
        database = Database("scan-bytes")
        database.create_table("t", {"x": np.arange(10, dtype=np.int64)})
        database.set_indexing("t", "x", "scan")
        assert [record["nbytes"] for record in database.physical_design_report()] == [0]
