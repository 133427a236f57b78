"""Unit tests for query descriptions and the planner."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection


@pytest.fixture
def database(rng):
    db = Database("test")
    size = 3000
    db.create_table(
        "facts",
        {
            "a": rng.integers(0, 10_000, size=size).astype(np.int64),
            "b": rng.integers(0, 1_000, size=size).astype(np.int64),
            "c": rng.uniform(0, 1, size=size),
        },
    )
    return db


class TestQuery:
    def test_range_selection_validation(self):
        with pytest.raises(ValueError):
            RangeSelection("a", 10, 5)

    def test_query_requires_table(self):
        with pytest.raises(ValueError):
            Query(table="")

    def test_duplicate_selection_rejected(self):
        with pytest.raises(ValueError, match="duplicate selection"):
            Query(
                table="t",
                selections=[RangeSelection("a", 0, 1), RangeSelection("a", 2, 3)],
            )

    def test_range_query_constructor(self):
        query = Query.range_query("t", "a", 0, 10, projections=["b"])
        assert (query.selections[0].low, query.selections[0].high) == (0, 10)
        assert query.projections == ["b"]


class TestPlanner:
    def test_scan_plan_when_no_index(self, database):
        query = Query.range_query("facts", "a", 0, 1000)
        plan = database.planner.plan(query)
        assert [step.operator for step in plan.steps] == ["scan_select"]

    def test_index_plan_when_strategy_configured(self, database):
        database.set_indexing("facts", "a", "cracking")
        plan = database.planner.plan(Query.range_query("facts", "a", 0, 1000))
        assert plan.steps[0].operator == "index_select"
        assert plan.steps[0].access_path == "cracking"

    def test_indexed_column_chosen_first(self, database):
        database.set_indexing("facts", "b", "cracking")
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 5000), RangeSelection("b", 0, 100)],
        )
        plan = database.planner.plan(query)
        assert plan.steps[0].column == "b"
        assert plan.steps[0].operator == "index_select"
        assert plan.steps[1].operator == "refine"
        assert plan.steps[1].column == "a"

    def test_projection_adds_reconstruct_step(self, database):
        query = Query.range_query("facts", "a", 0, 1000, projections=["b", "c"])
        plan = database.planner.plan(query)
        assert plan.steps[-1].operator == "reconstruct"
        assert set(plan.steps[-1].columns) == {"b", "c"}

    def test_aggregate_step_appended(self, database):
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 1000)],
            aggregates=[Aggregate("c", "mean")],
        )
        plan = database.planner.plan(query)
        assert plan.steps[-1].operator == "aggregate"
        assert plan.steps[-1].function == "mean"

    def test_sideways_plan(self, database):
        database.set_indexing("facts", "a", "sideways-cracking")
        database.set_indexing("facts", "b", "full-index")
        query = Query(
            table="facts",
            # a path covering the projection leads whatever else is indexed
            selections=[RangeSelection("b", 0, 500), RangeSelection("a", 0, 1000)],
            projections=["c"],
            aggregates=[Aggregate("c", "sum")],
        )
        plan = database.planner.plan(query)
        assert [step.operator for step in plan.steps] == ["index_select", "aggregate"]
        assert plan.steps[0].column == "a"
        assert plan.steps[0].access_path == "sideways-cracking"
        assert plan.steps[0].columns == ("b", "c")

    def test_plan_lists_every_step(self, database):
        database.set_indexing("facts", "a", "cracking")
        query = Query(
            table="facts",
            selections=[RangeSelection("a", 0, 1000)],
            projections=["b"],
            aggregates=[Aggregate("b", "sum")],
        )
        steps = database.planner.plan(query).steps
        assert [step.operator for step in steps] == ["index_select", "reconstruct", "aggregate"]
        assert steps[0].access_path == "cracking"
