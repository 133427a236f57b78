"""The plan keeps the caller's query and types every bound in its steps.

``Planner.plan`` turns each selection's bounds into keys of its column's
type (``exact_bounds``) exactly once, and only the plan holds them: the
leading selection and every ``refine`` step carry them, and a path that
covers the projection gets the other selections, typed, in its step's
``refinements``.  The query itself is the caller's object, unchanged.
"""

import math

import numpy as np
import pytest

from repro.columnstore.types import exact_bounds
from repro.engine.database import Database
from repro.engine.query import Aggregate, Query, RangeSelection

ROWS = 2_000
#: int64 values this close to 2**60 are 256 apart as float64s: a bound
#: compared as a float there moves rows across it, a typed one does not
NEAR = 2**60


def _columns(rng):
    return {
        "a": rng.integers(0, 10_000, size=ROWS).astype(np.int64),
        "b": (NEAR + rng.integers(0, 1_024, size=ROWS)).astype(np.int64),
        "u": rng.integers(0, 256, size=ROWS).astype(np.uint8),
        "c": rng.uniform(0.0, 100.0, size=ROWS),
    }


#: (low, high) float bounds on ``a`` and on ``b``: fractional, infinite and
#: outside the int64 range, beside plain ones
COVERING_CASES = [
    ((1000.5, 4000.25), (NEAR + 128.5, float(NEAR + 768))),
    ((-math.inf, 2500.75), (float(NEAR + 256), math.inf)),
    ((7000.0, math.inf), (-1e30, float(NEAR + 512))),
    ((-1e30, 1e30), (float(NEAR), 2.0**63)),
    ((-math.inf, math.inf), (-math.inf, float(NEAR + 384))),
    ((5000.5, 5000.75), (float(NEAR + 256), 1e30)),
]


def _expected_rows(columns, bounds_a, bounds_b):
    """Rows with ``low <= v < high`` on both columns, compared exactly (a
    Python int against a Python float compares as real numbers)."""
    a, b = columns["a"].tolist(), columns["b"].tolist()
    (a_low, a_high), (b_low, b_high) = bounds_a, bounds_b
    return [row for row in range(ROWS)
            if a_low <= a[row] < a_high and b_low <= b[row] < b_high]


class TestCoveringPathRefinements:
    """A path that covers the projection refines on typed bounds: the same
    rowids and columns as a scan of the base table."""

    @pytest.fixture
    def columns(self, rng):
        return _columns(rng)

    def _database(self, columns, mode):
        database = Database("covering")
        database.create_table("t", {name: values.copy()
                                    for name, values in columns.items()})
        if mode != "scan":
            database.set_indexing("t", "a", mode)
        return database

    def test_sideways_select_project_matches_a_scan(self, columns):
        scanned = self._database(columns, "scan")
        sideways = self._database(columns, "sideways-cracking")
        with scanned.session() as scan_session, sideways.session() as side_session:
            for bounds_a, bounds_b in COVERING_CASES:
                query = Query(
                    table="t",
                    selections=[RangeSelection("a", *bounds_a),
                                RangeSelection("b", *bounds_b)],
                    projections=["b", "c"],
                    aggregates=[Aggregate("b", "count")],
                )
                assert [step.operator for step in sideways.planner.plan(query).steps] == [
                    "index_select", "aggregate"]
                expected = _expected_rows(columns, bounds_a, bounds_b)
                for result in (scan_session.execute(query),
                               side_session.execute(query)):
                    order = np.argsort(result.positions, kind="stable")
                    assert result.positions[order].tolist() == expected
                    for name in ("b", "c"):
                        assert np.array_equal(result.columns[name][order],
                                              columns[name][expected])
                    assert result.aggregates["count(b)"] == len(expected)


class TestPlanKeepsTheQuery:
    """``db.planner.plan(q).query is q``; every selecting step's bounds are
    ``exact_bounds`` of the column's dtype."""

    @pytest.fixture
    def database(self, rng):
        database = Database("plan")
        database.create_table("t", {
            "i": rng.integers(-1_000, 1_000, size=200).astype(np.int64),
            "u": rng.integers(0, 256, size=200).astype(np.uint8),
            "f": rng.uniform(-10.0, 10.0, size=200),
        })
        return database

    BOUNDS = [
        pytest.param((2.5, 7.25), id="fractional"),
        pytest.param((3, 9), id="ints"),
        pytest.param((-math.inf, math.inf), id="infinite"),
        pytest.param((None, 4.5), id="open-low"),
        pytest.param((-1e30, 1e30), id="clamp"),
        pytest.param((300.5, 1e30), id="empty-past-top"),
        pytest.param((-2.0**70, -2.0**65), id="empty-below-bottom"),
        pytest.param((2.0**63, None), id="past-int64"),
    ]

    @pytest.mark.parametrize("bounds", BOUNDS)
    @pytest.mark.parametrize("column", ["i", "u", "f"])
    @pytest.mark.parametrize("mode", ["scan", "cracking", "sideways-cracking"])
    def test_step_bounds_are_exact_bounds(self, database, mode, column, bounds):
        if mode != "scan":
            database.set_indexing("t", column, mode)
        others = [name for name in ("i", "u", "f") if name != column]
        query = Query(
            table="t",
            selections=[RangeSelection(column, *bounds),
                        RangeSelection(others[0], *bounds)],
            aggregates=[Aggregate(others[1], "sum")],
        )
        selections = list(query.selections)
        plan = database.planner.plan(query)
        assert plan.query is query
        assert query.selections == selections
        assert [(s.low, s.high) for s in query.selections] == [bounds, bounds]

        def expected(name):
            dtype = database.table("t").column(name).dtype.numpy_dtype
            return exact_bounds(dtype, *bounds)

        lead, *rest = plan.steps
        assert lead.column == column
        assert lead.operator == ("scan_select" if mode == "scan" else "index_select")
        typed = [(lead.column, (lead.low, lead.high))]
        if mode == "sideways-cracking":
            typed += [(name, (low, high)) for name, low, high in lead.refinements]
        else:
            assert lead.refinements == ()
            typed += [(step.column, (step.low, step.high))
                      for step in rest if step.operator == "refine"]
        assert [name for name, _ in typed] == [column, others[0]]
        for name, got in typed:
            assert got == expected(name)
            assert list(map(type, got)) == list(map(type, expected(name)))

    @pytest.mark.parametrize("column", ["i", "u", "f"])
    @pytest.mark.parametrize("nan_at", ["low", "high"])
    def test_a_nan_bound_raises(self, database, column, nan_at):
        database.set_indexing("t", column, "cracking")
        bounds = (math.nan, 5.0) if nan_at == "low" else (1.0, math.nan)
        query = Query(table="t", selections=[RangeSelection(column, *bounds)])
        with pytest.raises(ValueError, match="NaN"):
            database.planner.plan(query)
        with database.session() as session, pytest.raises(ValueError, match="NaN"):
            session.execute(query)
