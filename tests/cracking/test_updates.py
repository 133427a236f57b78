"""Unit tests for cracking with updates (ripple insert/delete, merge on demand)."""

import numpy as np
import pytest

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.cost.counters import CostCounters


def visible_reference(column):
    """Rowid -> value mapping of everything currently visible."""
    return {int(r): float(v) for r, v in zip(column.rowids, column.values)}


class TestInsertions:
    def test_insert_is_pending_until_queried(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        rowid = column.insert(42)
        assert rowid == len(small_values)
        assert column.pending_inserts == 1
        # a query over a range containing 42 merges and returns it
        result = column.search(40, 45)
        assert rowid in result.tolist()
        assert column.pending_inserts == 0

    def test_insert_outside_query_range_stays_pending(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        column.insert(99)
        column.search(0, 50)
        assert column.pending_inserts == 1

    def test_inserted_rows_returned_by_later_queries(self, small_values, reference):
        column = UpdatableCrackedColumn(small_values)
        new_ids = [column.insert(value) for value in (10, 20, 30)]
        expected = reference(small_values, 5, 35) | set(new_ids)
        assert set(column.search(5, 35).tolist()) == expected
        # and again, after they were merged
        assert set(column.search(5, 35).tolist()) == expected
        column.check_invariants()

    def test_insert_type_validation(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        with pytest.raises(TypeError):
            column.insert(1.5)

    def test_integer_validation_is_exact(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        for value in (float("nan"), float("inf"), -float("inf"), np.float64(0.5)):
            with pytest.raises(TypeError):
                column.insert(value)
        for value in (2**63, -2**63 - 1, 1e30):
            with pytest.raises(ValueError):
                column.insert(value)
        accepted = [7, np.int64(7), 7.0, np.float32(7), True, 2**63 - 1, -2**63]
        rowids = [column.insert(value) for value in accepted]
        assert [column.value_of(rowid) for rowid in rowids] == [int(v) for v in accepted]
        assert all(type(column.value_of(rowid)) is int for rowid in rowids)
        assert column.pending_inserts == len(accepted)

    def test_a_nan_key_is_refused(self):
        # it would qualify for no bounded range: pending for ever, so the
        # column could never be recognised as converged
        values = np.random.default_rng(3).uniform(0, 100, size=64)
        column = UpdatableCrackedColumn(values, name="price")
        with pytest.raises(ValueError, match="price"):
            column.insert(float("nan"))
        with pytest.raises(ValueError, match="price"):
            column.update(3, float("nan"))
        assert column.pending_inserts == column.pending_deletes == 0
        assert len(column) == 64 and not column.converged
        assert sorted(column.search(None, None).tolist()) == list(range(64))
        for key in values.tolist():
            column.crack_at(key)  # one key per piece: sorted
        assert column.converged
        column.check_invariants()

    def test_many_inserts_preserve_content(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        rng = np.random.default_rng(0)
        inserted = []
        for _ in range(100):
            value = int(rng.integers(0, 100))
            inserted.append(value)
            column.insert(value)
        column.search(0, 100)  # merge everything
        expected = sorted(small_values.tolist() + inserted)
        assert sorted(column.visible_values().tolist()) == expected
        column.check_invariants()


class TestDeletions:
    def test_delete_original_row(self, small_values, reference):
        column = UpdatableCrackedColumn(small_values)
        victim = 3
        value = int(small_values[victim])
        column.delete(victim)
        assert column.pending_deletes == 1
        result = column.search(value, value + 1)
        assert victim not in result.tolist()
        column.check_invariants()

    def test_delete_unknown_rowid_raises(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        with pytest.raises(KeyError):
            column.delete(10**9)

    def test_delete_pending_insert_cancels_it(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        rowid = column.insert(55)
        column.delete(rowid)
        assert column.pending_inserts == 0
        assert rowid not in column.search(50, 60).tolist()

    def test_delete_merged_insert(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        rowid = column.insert(55)
        column.search(50, 60)  # merge it
        column.delete(rowid)
        assert rowid not in column.search(50, 60).tolist()
        column.check_invariants()

    def test_double_delete_is_idempotent(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        column.delete(0)
        column.delete(0)
        assert column.pending_deletes == 1

    def test_merged_delete_of_insert_forgets_the_rowid(self, small_values):
        # once the delete of an inserted row has merged, the row is gone for
        # good: value_of raises and no per-insert bookkeeping is retained
        column = UpdatableCrackedColumn(small_values)
        rowid = column.insert(55)
        column.search(50, 60)  # merge the insert
        column.delete(rowid)
        column.search(50, 60)  # merge the delete
        with pytest.raises(KeyError):
            column.value_of(rowid)
        assert not column.knows_rowid(rowid)
        assert column._inserted_values == {}

    def test_update_is_delete_plus_insert(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        old_value = int(small_values[7])
        new_rowid = column.update(7, 77)
        low_result = column.search(old_value, old_value + 1).tolist()
        assert 7 not in low_result
        assert new_rowid in column.search(77, 78).tolist()


class TestMergePolicies:
    def test_ripple_policy_merges_everything_in_range(self, small_values):
        column = UpdatableCrackedColumn(small_values, policy="ripple")
        for value in range(10, 40):
            column.insert(value)
        column.search(0, 50)
        assert column.pending_inserts == 0

    def test_gradual_policy_limits_merges_but_stays_correct(self, small_values, reference):
        column = UpdatableCrackedColumn(small_values, policy="gradual", merge_batch=4)
        new_ids = [column.insert(value) for value in range(10, 40)]
        expected = reference(small_values, 0, 50) | set(new_ids)
        result = set(column.search(0, 50).tolist())
        assert result == expected
        assert column.pending_inserts > 0  # only a batch was merged
        # keep querying: eventually everything gets merged
        for _ in range(20):
            column.search(0, 50)
        assert column.pending_inserts == 0
        column.check_invariants()

    def test_unknown_policy_rejected(self, small_values):
        with pytest.raises(ValueError):
            UpdatableCrackedColumn(small_values, policy="bogus")


class TestRippleCost:
    def test_merge_cost_proportional_to_pieces_not_column(self):
        """The ripple moves one tuple per piece, not the whole column."""
        rng = np.random.default_rng(1)
        values = rng.integers(0, 100_000, size=50_000)
        column = UpdatableCrackedColumn(values)
        # crack into a handful of pieces first
        for low in (10_000, 30_000, 50_000, 70_000, 90_000):
            column.search(low, low + 1000)
        piece_count = column.piece_count
        column.insert(20_000)
        counters = CostCounters()
        column.search(19_000, 21_000, counters)
        # the merge itself moved at most one tuple per piece (plus the insert);
        # cracking the two new query bounds dominates the remaining movement,
        # but nothing resembling a full-column rebuild happened.
        assert counters.tuples_moved < len(values) / 2

    def test_interleaved_updates_and_queries_stay_correct(self, rng):
        base = rng.integers(0, 1000, size=2000)
        column = UpdatableCrackedColumn(base)
        model = {int(i): int(v) for i, v in enumerate(base)}
        next_expected_id = len(base)
        for step in range(200):
            action = step % 4
            if action == 0:
                value = int(rng.integers(0, 1000))
                rowid = column.insert(value)
                assert rowid == next_expected_id
                next_expected_id += 1
                model[rowid] = value
            elif action == 1 and model:
                victim = int(rng.choice(list(model)))
                column.delete(victim)
                del model[victim]
            else:
                low = int(rng.integers(0, 900))
                high = low + int(rng.integers(1, 100))
                got = set(column.search(low, high).tolist())
                expected = {r for r, v in model.items() if low <= v < high}
                assert got == expected
        column.check_invariants()


class TestConvergedLatch:
    """A sorted column answers by binary search — until an update is merged."""

    @staticmethod
    def converged_column():
        rng = np.random.default_rng(5)
        # one crack of a sorted base leaves three *wide* sorted pieces, so
        # a ripple into any of them lands out of order
        base = np.sort(rng.integers(0, 60, size=200)).astype(np.int64)
        # lazy: the first search copies it, so it is not yet sorted when
        # asked, and cracks it into three pieces
        column = CrackedColumn(base)
        column.search(20, 40)
        assert column.piece_count == 3 and column.converged
        return column, {int(i): int(v) for i, v in enumerate(base)}

    @staticmethod
    def assert_matches_scan(column, model):
        for low, high in [(10, 20), (12, 13), (17, 18), (20, 21), (40, 45),
                          (0, 60), (40, None), (None, 5)]:
            expected = {
                r for r, v in model.items()
                if (low is None or v >= low) and (high is None or v < high)
            }
            assert set(column.search(low, high).tolist()) == expected
        column.check_invariants()

    def test_pending_updates_suspend_convergence(self):
        column, _ = self.converged_column()
        column.insert(30)
        assert not column.converged
        column.search(30, 31)  # merges the insert
        assert column.pending_inserts == 0

    @pytest.mark.parametrize("policy", ["ripple", "gradual"])
    def test_inserts_inside_and_outside_the_queried_range(self, policy):
        column, model = self.converged_column()
        column.policy, column.merge_batch = policy, 1
        counters = CostCounters()
        # inside [10, 20): merged by the query, a ripple into sorted data
        for value in (12, 17, 12):
            model[column.insert(value)] = value
        # outside: stays pending, the merged region stays sorted
        model[column.insert(55)] = 55
        expected = {r for r, v in model.items() if 10 <= v < 20}
        assert set(column.search(10, 20, counters).tolist()) == expected
        assert counters.tuples_moved > 0  # the ripple really happened
        self.assert_matches_scan(column, model)

    def test_delete_from_a_converged_column(self):
        column, model = self.converged_column()
        victims = [r for r, v in model.items() if 10 <= v < 20][:3]
        for victim in victims:
            column.delete(victim)
            del model[victim]
        self.assert_matches_scan(column, model)

    def test_column_converges_again_after_the_merge(self):
        column, model = self.converged_column()
        model[column.insert(12)] = 12
        column.search(10, 20)
        for low in range(60):
            column.search(low, low + 1)
        assert column.converged
        self.assert_matches_scan(column, model)


class TestDeleteAndValueOfExceptionMatrix:
    """What ``delete`` and ``value_of`` raise, ignore and accept — pinned.

    The same script runs against a plain column, against a shard numbered
    from ``rowid_base > 0`` (what every partition of a partitioned column
    is) and against a lazy column, whose copy its first DML makes.  Base
    values are distinct, so a row is found by its value; ``row(column, i)``
    is the identifier of base position ``i``.
    """

    BASE = np.array([7, 3, 9, 1, 12, 5, 17, 0, 14, 8, 19, 2], dtype=np.int64)

    @pytest.fixture(params=["column", "shard", "lazy"])
    def column(self, request):
        if request.param == "shard":
            return CrackedColumn(self.BASE, lazy_copy=False, rowid_base=1_000)
        return CrackedColumn(self.BASE, lazy_copy=request.param == "lazy")

    @staticmethod
    def row(column, position):
        return column.rowid_base + position

    @staticmethod
    def merge_everything(column):
        column.search(None, None)
        assert column.pending_inserts == column.pending_deletes == 0

    def test_unknown_rowid(self, column):
        unknown = 10**9
        assert not column.knows_rowid(unknown)
        with pytest.raises(KeyError, match="unknown row identifier"):
            column.delete(unknown)
        with pytest.raises(KeyError, match=f"row {unknown} not found"):
            column.value_of(unknown)
        assert column.pending_deletes == 0

    def test_base_row_is_read_and_deleted_by_its_rowid(self, column):
        one, seven = self.row(column, 1), self.row(column, 7)
        assert column.value_of(one) == 3.0 and column.value_of(seven) == 0.0
        copied = not column.materialised
        counters = CostCounters()
        column.delete(one, counters)
        expected = CostCounters(tuples_moved=1)
        if copied:  # the first DML makes the copy and is charged for it
            size = len(self.BASE)
            expected = CostCounters(tuples_scanned=size, tuples_moved=size + 1,
                                    bytes_allocated=16 * size)
        assert counters.as_dict() == expected.as_dict()
        assert column._pending_delete_rowids == {one: 3.0}

    def test_double_delete_while_pending_is_a_noop(self, column):
        one = self.row(column, 1)
        column.delete(one)
        counters = CostCounters()
        column.delete(one, counters)
        assert column.pending_deletes == 1
        assert counters.as_dict() == CostCounters().as_dict()
        with pytest.raises(KeyError, match=f"row {one} has been deleted"):
            column.value_of(one)
        assert column.knows_rowid(one)

    def test_delete_of_a_base_row_after_its_delete_was_merged(self, column):
        one = self.row(column, 1)
        column.delete(one)
        self.merge_everything(column)
        assert one not in column.rowids.tolist()
        # a base rowid stays "known" for good, yet the row is gone
        assert column.knows_rowid(one)
        with pytest.raises(KeyError, match=f"unknown row identifier {one}"):
            column.delete(one)
        with pytest.raises(KeyError, match=f"unknown row identifier {one}"):
            column.value_of(one)
        assert column.pending_deletes == 0
        # its neighbours are untouched
        assert column.value_of(self.row(column, 0)) == 7.0
        assert column.value_of(self.row(column, 5)) == 5.0
        column.check_invariants()

    def test_a_shard_never_knows_a_row_outside_its_range(self):
        # a base row is a range check on ``rowid_base``: the rows either
        # side of a shard belong to its neighbours
        shard = CrackedColumn(self.BASE, lazy_copy=False, rowid_base=1_000)
        for rowid in (999, 1_000 + len(self.BASE)):
            assert not shard.knows_rowid(rowid)
            with pytest.raises(KeyError, match=f"unknown row identifier {rowid}"):
                shard.delete(rowid)
            with pytest.raises(KeyError, match=f"row {rowid} not found"):
                shard.value_of(rowid)
        assert shard.pending_deletes == 0

    def test_delete_cancels_a_pending_insert(self, column):
        rowid = column.insert(4)
        assert column.value_of(rowid) == 4.0
        counters = CostCounters()
        column.delete(rowid, counters)
        assert column.pending_inserts == column.pending_deletes == 0
        assert counters.as_dict() == CostCounters().as_dict()
        assert not column.knows_rowid(rowid)
        with pytest.raises(KeyError, match=f"row {rowid} not found"):
            column.value_of(rowid)
        with pytest.raises(KeyError, match="unknown row identifier"):
            column.delete(rowid)

    def test_delete_of_a_merged_inserted_row(self, column):
        rowid = column.insert(4)
        self.merge_everything(column)
        assert column.value_of(rowid) == 4.0
        column.delete(rowid)
        assert column._pending_delete_rowids == {rowid: 4.0}
        with pytest.raises(KeyError, match=f"row {rowid} has been deleted"):
            column.value_of(rowid)
        self.merge_everything(column)
        assert not column.knows_rowid(rowid)
        with pytest.raises(KeyError, match="unknown row identifier"):
            column.delete(rowid)
        with pytest.raises(KeyError, match=f"row {rowid} not found"):
            column.value_of(rowid)
        column.check_invariants()
