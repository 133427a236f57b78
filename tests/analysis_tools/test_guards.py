"""Tests for the @guarded_by declaration decorator and the lock order."""

import pytest

from repro.analysis_tools.guards import (
    LOCK_LEVELS,
    LOCK_ORDER,
    LOCK_RANK,
    guarded_by,
)


class TestGuardedBy:
    def test_declarations_are_attached(self):
        @guarded_by(_items="_lock", count="_stats_lock")
        class Sample:
            pass

        assert Sample.__guarded_attributes__ == {
            "_items": "_lock",
            "count": "_stats_lock",
        }

    def test_declarations_merge_across_inheritance(self):
        @guarded_by(_base_state="_lock")
        class Base:
            pass

        @guarded_by(_child_state="_child_lock")
        class Child(Base):
            pass

        assert Child.__guarded_attributes__ == {
            "_base_state": "_lock",
            "_child_state": "_child_lock",
        }

    def test_subclass_can_rebind_an_attribute_to_another_lock(self):
        @guarded_by(_state="_lock")
        class Base:
            pass

        @guarded_by(_state="_other_lock")
        class Child(Base):
            pass

        assert Child.__guarded_attributes__["_state"] == "_other_lock"
        assert Base.__guarded_attributes__["_state"] == "_lock"

    def test_empty_declaration_is_rejected(self):
        with pytest.raises(ValueError):
            guarded_by()

    def test_blank_lock_name_is_rejected(self):
        with pytest.raises(ValueError):
            guarded_by(_items="")

    def test_undecorated_class_has_no_guards(self):
        class Plain:
            pass

        assert not hasattr(Plain, "__guarded_attributes__")

    def test_engine_classes_declare_their_guards(self):
        from repro.engine.concurrency import TableGate
        from repro.engine.database import Database

        assert TableGate.__guarded_attributes__["_active_readers"] == "_mutex"
        assert Database.__guarded_attributes__["rows_deleted"] == "_engine_stats_lock"


class TestLockOrder:
    def test_ranks_follow_the_declared_order(self):
        assert LOCK_ORDER == ("schema", "gate", "path", "wal_order", "stats")
        assert [LOCK_RANK[level] for level in LOCK_ORDER] == list(range(5))

    def test_every_declared_attribute_is_a_lock_of_the_database(self):
        from repro.engine.database import Database

        database = Database("declared")
        # the leaves are "every other lock": only the levels above them are named
        assert set(LOCK_LEVELS.values()) == set(LOCK_ORDER) - {"stats"}
        for attribute in LOCK_LEVELS:
            assert hasattr(database, attribute), attribute
