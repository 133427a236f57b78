"""Unit tests for cracking with updates (ripple insert/delete, merge on demand)."""

import numpy as np
import pytest

from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.cost.counters import CostCounters


#: the merge policies; ``updatable`` gives the gradual one a budget of one
#: merge per query, so a query that meets two qualifying updates leaves one
#: pending where the ripple policy merges both
POLICIES = ["ripple", "gradual"]


def updatable(values, policy, **options):
    return UpdatableCrackedColumn(values, policy=policy, merge_batch=1, **options)


def visible_reference(column):
    """Rowid -> value mapping of everything currently visible."""
    return {int(r): float(v) for r, v in zip(column.rowids, column.values)}


class TestInsertions:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_insert_is_pending_until_queried(self, small_values, policy):
        # nothing is built and no query ran: the first query that covers
        # the values finds the pending inserts
        column = updatable(small_values, policy)
        rowids = [column.insert(42), column.insert(43)]
        assert rowids == [len(small_values), len(small_values) + 1]
        assert column.pending_inserts == 2
        # a query over a range containing both returns both, merged or,
        # past the gradual budget, still queued
        result = column.search(40, 45).tolist()
        assert set(rowids) <= set(result)
        assert column.pending_inserts == {"ripple": 0, "gradual": 1}[policy]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_insert_outside_query_range_stays_pending(self, small_values, policy):
        # queued first, yet the gradual budget goes to a qualifying insert
        column = updatable(small_values, policy)
        column.insert(99)
        column.insert(10)
        column.insert(20)
        column.search(0, 50)
        assert column.pending_inserts == {"ripple": 1, "gradual": 2}[policy]
        column.search(0, 50)
        assert column.pending_inserts == 1
        assert len(small_values) in column.search(99, 100).tolist()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_inserted_rows_returned_by_later_queries(self, small_values, reference, policy):
        column = updatable(small_values, policy)
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
        assert column.pending_inserts == len(accepted)
        assert set(rowids[:4]) <= set(column.search(7, 8).tolist())
        assert rowids[4] in column.search(1, 2).tolist()
        assert column.search(-2**63, -2**63 + 1).tolist() == [rowids[6]]

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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_many_inserts_preserve_content(self, small_values, policy):
        column = updatable(small_values, policy)
        rng = np.random.default_rng(0)
        inserted = []
        for _ in range(100):
            value = int(rng.integers(0, 100))
            inserted.append(value)
            column.insert(value)
        column.search(0, 100)  # merges all of them, or one
        expected = sorted(small_values.tolist() + inserted)
        assert sorted(column.visible_values().tolist()) == expected
        column.check_invariants()


class TestDeletions:
    @pytest.mark.parametrize("victim", [0, 3, 499])  # both ends of the rows
    def test_delete_original_row(self, small_values, reference, victim):
        column = UpdatableCrackedColumn(small_values)
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
        with pytest.raises(KeyError):
            column.update(10**9, 5)
        assert column.pending_inserts == column.pending_deletes == 0

    def test_delete_pending_insert_cancels_it(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        rowid = column.insert(55)
        column.delete(rowid)
        assert column.pending_inserts == 0
        assert rowid not in column.search(50, 60).tolist()
        # the rowid no longer exists anywhere: deleting it again raises
        with pytest.raises(KeyError):
            column.delete(rowid)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_delete_merged_insert(self, small_values, policy):
        column = updatable(small_values, policy)
        rowid = column.insert(55)
        column.search(50, 60)  # merge it
        other = column.insert(56)
        column.delete(rowid)
        # the gradual budget merges one of the two and answers the other
        # from its queue
        result = column.search(50, 60).tolist()
        assert rowid not in result and other in result
        pending = column.pending_inserts + column.pending_deletes
        assert pending == {"ripple": 0, "gradual": 1}[policy]
        column.check_invariants()

    def test_double_delete_is_idempotent(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        column.delete(0)
        column.delete(0)
        assert column.pending_deletes == 1

    def test_merged_delete_of_insert_forgets_the_rowid(self, small_values):
        # once the delete of an inserted row has merged, the row is gone for
        # good: the row is unknown and no per-insert bookkeeping is retained
        column = UpdatableCrackedColumn(small_values)
        rowid = column.insert(55)
        column.search(50, 60)  # merge the insert
        column.delete(rowid)
        column.search(50, 60)  # merge the delete
        assert rowid not in column.rowids.tolist()
        assert not column.knows_rowid(rowid)
        assert column._inserted_values == {}

    def test_update_is_delete_plus_insert(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        old_value = int(small_values[7])
        new_rowid = column.update(7, 77)
        assert new_rowid == len(small_values)  # the row is renumbered
        low_result = column.search(old_value, old_value + 1).tolist()
        assert 7 not in low_result
        assert new_rowid in column.search(77, 78).tolist()

    def test_update_is_atomic_on_type_errors(self, small_values):
        # a rejected value must not tombstone the old row first
        column = UpdatableCrackedColumn(small_values)
        with pytest.raises(TypeError):
            column.update(10, 2.5)
        assert len(column) == len(small_values)
        assert column.pending_deletes == 0
        value = int(small_values[10])
        assert 10 in column.search(value, value + 1).tolist()


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

    def test_non_qualifying_pending_still_charged(self, rng):
        # pending-structure scans are charged whether or not anything
        # qualifies
        base = rng.integers(0, 100, size=500).astype(np.int64)
        quiet = UpdatableCrackedColumn(base)
        busy = UpdatableCrackedColumn(base)
        busy.insert(999)  # far outside the query range below
        counters_quiet, counters_busy = CostCounters(), CostCounters()
        quiet.search(0, 50, counters_quiet)
        busy.search(0, 50, counters_busy)
        # identical cracking work; the busy column pays exactly one extra
        # comparison for scanning its (non-qualifying) pending insert
        assert counters_busy.comparisons == counters_quiet.comparisons + 1


class TestGradualBudget:
    """Regression tests for the shared gradual-policy merge budget."""

    @pytest.mark.parametrize("merge_batch", [1, 4])
    def test_inserts_and_deletes_share_one_budget(self, rng, merge_batch):
        # queue qualifying inserts AND deletes, then count merges of one
        # query: the buggy version merged up to merge_batch of each
        base = rng.integers(0, 100, size=500).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy="gradual", merge_batch=merge_batch)
        for value in range(10, 20):
            column.insert(value)
        column.search(0, 100)  # merges a first batch of the inserts
        merged_before = column.merges_performed
        victims = [int(r) for r in column.rowids[:10]]
        for victim in victims:
            column.delete(victim)
        column.search(0, 100)
        assert column.merges_performed - merged_before <= merge_batch

    @pytest.mark.parametrize("merge_batch", [1, 4, 16])
    def test_budget_respected_over_random_stream(self, merge_batch, rng):
        base = rng.integers(0, 100, size=500).astype(np.int64)
        column = UpdatableCrackedColumn(
            base, policy="gradual", merge_batch=merge_batch
        )
        model = dict(enumerate(base.tolist()))
        for step in range(200):
            action = int(rng.integers(0, 3))
            if action == 0:
                value = int(rng.integers(0, 100))
                model[column.insert(value)] = value
            elif action == 1 and model:
                victim = int(rng.choice(list(model)))
                column.delete(victim)
                del model[victim]
            else:
                merges_before = column.merges_performed
                low = int(rng.integers(0, 95))
                got = set(column.search(low, low + 10).tolist())
                assert column.merges_performed - merges_before <= merge_batch
                assert got == {r for r, v in model.items() if low <= v < low + 10}

    def test_deletes_drain_despite_steady_insert_pressure(self, rng):
        # the shared budget is served round-robin: a stream that queues
        # more qualifying inserts than the whole budget every query must
        # not starve the pending deletes forever
        base = rng.integers(0, 100, size=400).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy="gradual", merge_batch=4)
        for victim in range(20):
            column.delete(victim)
        for _ in range(40):
            for _ in range(6):  # 6 qualifying inserts > merge_batch
                column.insert(int(rng.integers(0, 100)))
            column.search(0, 100)
        assert column.pending_deletes == 0

    @pytest.mark.parametrize("merge_batch", [1, 2])
    def test_deletes_drain_at_a_budget_of_one(self, rng, merge_batch):
        # at a budget of one a batch that always led with an insert never
        # merged a delete while an insert qualified: the leading kind
        # alternates, so 20 deletes drain within 40 such queries
        base = rng.integers(0, 100, size=400).astype(np.int64)
        column = UpdatableCrackedColumn(base, policy="gradual", merge_batch=merge_batch)
        for victim in range(20):
            column.delete(victim)
        for _ in range(40):
            for _ in range(6):
                column.insert(int(rng.integers(0, 100)))
            column.search(0, 100)
        assert column.pending_deletes == 0


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

    @pytest.mark.parametrize("stream", ["alternating", "random"])
    # no query here meets more than 16 qualifying updates, so at the default
    # budget the gradual column would merge what the ripple one does
    @pytest.mark.parametrize("policy, merge_batch", [
        ("ripple", 16), ("gradual", 1), ("gradual", 4),
    ])
    def test_interleaved_updates_and_queries_stay_correct(
            self, rng, stream, policy, merge_batch):
        # "alternating": insert, delete, two queries, in turn; "random": each
        # step a random one of them (a query twice as likely)
        base = rng.integers(0, 1000, size=2000)
        column = UpdatableCrackedColumn(base, policy=policy, merge_batch=merge_batch)
        model = {int(i): int(v) for i, v in enumerate(base)}
        next_expected_id = len(base)
        for step in range(300):
            action = step % 4 if stream == "alternating" else int(rng.integers(0, 4))
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
        assert sorted(column.visible_values().tolist()) == sorted(model.values())
        assert len(column) == len(model)


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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pending_updates_suspend_convergence(self, policy):
        column, _ = self.converged_column()
        column.policy, column.merge_batch = policy, 1
        column.insert(30)
        column.insert(30)
        assert not column.converged
        column.search(30, 31)  # merges both inserts, or one
        assert column.pending_inserts == {"ripple": 0, "gradual": 1}[policy]
        if policy == "gradual":
            assert not column.converged  # one is still queued
            column.search(30, 31)
        assert column.pending_inserts == 0

    @pytest.mark.parametrize("policy", POLICIES)
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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_delete_from_a_converged_column(self, policy):
        # under the gradual policy the scan's queries trickle the deletes in
        # one at a time, answering the others from the queue
        column, model = self.converged_column()
        column.policy, column.merge_batch = policy, 1
        victims = [r for r, v in model.items() if 10 <= v < 20][:3]
        for victim in victims:
            column.delete(victim)
            del model[victim]
        self.assert_matches_scan(column, model)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_column_converges_again_after_the_merge(self, policy):
        column, model = self.converged_column()
        column.policy, column.merge_batch = policy, 1
        model[column.insert(12)] = 12
        model[column.insert(14)] = 14
        column.search(10, 20)  # merges both, or one
        for low in range(60):
            column.search(low, low + 1)
        assert column.converged
        self.assert_matches_scan(column, model)


class TestDeleteExceptionMatrix:
    """What ``delete`` raises, ignores and accepts, and which rows stay
    visible — pinned.

    The same script runs against an updatable column, against a shard
    numbered from ``rowid_base > 0`` (what every partition of a partitioned
    column is) and against a read-only ("lazy") one; DML builds the cracker
    column on none of them.  Base
    values are distinct, so a row is found by its value; ``row(column, i)``
    is the identifier of base position ``i``.
    """

    BASE = np.array([7, 3, 9, 1, 12, 5, 17, 0, 14, 8, 19, 2], dtype=np.int64)

    @pytest.fixture(params=["column", "shard", "lazy"])
    def column(self, request):
        if request.param == "shard":
            return CrackedColumn(self.BASE, supports_updates=True, rowid_base=1_000)
        return CrackedColumn(self.BASE, supports_updates=request.param == "column")

    @staticmethod
    def row(column, position):
        return column.rowid_base + position

    @staticmethod
    def visible(column):
        """The visible values as a set (the base values are distinct)."""
        return set(column.visible_values().tolist())

    @staticmethod
    def merge_everything(column):
        column.search(None, None)
        assert column.pending_inserts == column.pending_deletes == 0

    def test_unknown_rowid(self, column):
        unknown = 10**9
        assert not column.knows_rowid(unknown)
        with pytest.raises(KeyError, match="unknown row identifier"):
            column.delete(unknown)
        assert column.pending_deletes == 0
        assert self.visible(column) == set(self.BASE.tolist())

    def test_base_row_is_read_and_deleted_by_its_rowid(self, column):
        one = self.row(column, 1)
        counters = CostCounters()
        column.delete(one, counters)
        # a delete only queues: one move, no copy
        assert counters == CostCounters(tuples_moved=1)
        assert not column.materialised
        assert column.pending_deletes == 1
        assert self.visible(column) == set(self.BASE.tolist()) - {3}

    def test_double_delete_while_pending_is_a_noop(self, column):
        one = self.row(column, 1)
        column.delete(one)
        counters = CostCounters()
        column.delete(one, counters)
        assert column.pending_deletes == 1
        assert counters == CostCounters()
        assert 3 not in self.visible(column)
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
        assert column.pending_deletes == 0
        # its neighbours are untouched
        assert self.visible(column) == set(self.BASE.tolist()) - {3}
        assert column.search(7, 8).tolist() == [self.row(column, 0)]
        assert column.search(5, 6).tolist() == [self.row(column, 5)]
        column.check_invariants()

    def test_a_shard_never_knows_a_row_outside_its_range(self):
        # a base row is a range check on ``rowid_base``: the rows either
        # side of a shard belong to its neighbours
        shard = CrackedColumn(self.BASE, supports_updates=True, rowid_base=1_000)
        for rowid in (999, 1_000 + len(self.BASE)):
            assert not shard.knows_rowid(rowid)
            with pytest.raises(KeyError, match=f"unknown row identifier {rowid}"):
                shard.delete(rowid)
        assert shard.pending_deletes == 0

    def test_delete_cancels_a_pending_insert(self, column):
        rowid = column.insert(4)
        assert 4 in self.visible(column)
        counters = CostCounters()
        column.delete(rowid, counters)
        assert column.pending_inserts == column.pending_deletes == 0
        assert counters == CostCounters()
        assert not column.knows_rowid(rowid)
        assert 4 not in self.visible(column)
        with pytest.raises(KeyError, match="unknown row identifier"):
            column.delete(rowid)

    def test_delete_of_a_merged_inserted_row(self, column):
        rowid = column.insert(4)
        self.merge_everything(column)
        assert column.search(4, 5).tolist() == [rowid]
        column.delete(rowid)
        assert column.pending_deletes == 1 and 4 not in self.visible(column)
        self.merge_everything(column)
        assert not column.knows_rowid(rowid)
        with pytest.raises(KeyError, match="unknown row identifier"):
            column.delete(rowid)
        assert 4 not in self.visible(column)
        column.check_invariants()


class TestBulkBaseDelete:
    """``delete_base_rows``: the one call that queues a table's tombstones
    (the per-row equivalence is ``tests/properties/test_property_bulk_delete.py``)."""

    def test_queues_every_rowid_in_order(self, small_values):
        column = UpdatableCrackedColumn(small_values, rowid_base=10)
        column.delete_base_rows(np.array([10, 13, 17], dtype=np.int64))
        assert column.pending_deletes == 3
        assert len(column) == len(small_values) - 3
        assert not column.materialised
        kept = [rowid for rowid in range(10, 10 + len(small_values))
                if rowid not in (10, 13, 17)]
        assert sorted(column.search(0, 100).tolist()) == kept

    def test_nothing_to_queue_is_a_no_op(self, small_values):
        column = UpdatableCrackedColumn(small_values)
        column.insert(5)
        column.delete_base_rows(np.empty(0, dtype=np.int64))
        assert column.pending_deletes == 0

    @pytest.mark.parametrize("before", ["insert", "delete", "merge"])
    def test_refuses_a_column_with_anything_queued_or_merged(self, small_values, before):
        column = UpdatableCrackedColumn(small_values)
        if before == "insert":
            column.insert(5)
        else:
            column.delete(0)
            if before == "merge":
                column.search(None, None)
        with pytest.raises(RuntimeError, match="nothing queued or merged"):
            column.delete_base_rows(np.array([1], dtype=np.int64))

    @pytest.mark.parametrize("rowids, error", [
        ([3, 1], ValueError), ([2, 2], ValueError), ([-1, 2], KeyError),
        ([1, 10_000], KeyError),
    ])
    def test_refuses_rowids_that_are_not_sorted_distinct_base_rows(
            self, small_values, rowids, error):
        column = UpdatableCrackedColumn(small_values)
        with pytest.raises(error):
            column.delete_base_rows(np.array(rowids, dtype=np.int64))
        assert column.pending_deletes == 0
