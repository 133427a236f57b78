"""Unit tests for storage budgets and memory tracking."""

import pytest

from repro.columnstore.storage import MemoryTracker, StorageBudget, StorageExceededError


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

class TestMemoryTracker:
    def test_set_add_remove(self):
        tracker = MemoryTracker()
        tracker.set_usage("table:t", 100)
        tracker.set_usage("table:t", 150)
        tracker.set_usage("index:i", 10)
        assert tracker.total_bytes == 160
        tracker.remove("index:i")
        assert tracker.total_bytes == 150
        assert tracker.breakdown() == {"table:t": 150}

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker().set_usage("x", -5)
