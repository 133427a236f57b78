"""Property suite: the runtime cost-conformance witness observes no violations.

The cost model's contract is that physical reorganisation is *paid for* out
of query work: whenever an access path changes shape, the query that caused
the change must charge comparisons and/or tuple movements.  The golden
counter literals and ``FIGURES.json`` pin exact charges for fixed streams;
the witness checks the contract on any stream, at runtime, by
fingerprinting every access path around each query the engine executes.

These tests arm a fresh witness and drive the full registered
strategy matrix through the engine front door — adaptive reads, repeated
ranges (convergence), point-ish ranges and DML on the updatable strategies —
so a kernel that reorganises for free (or a counter that regresses) fails
the run directly.

CI additionally exports ``REPRO_COST_WITNESS=1`` for the whole property
step, so every other property suite runs cost-instrumented too.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cracking.cracked_column import CrackedColumn
from repro.cost import witness as cost_witness_module
from repro.cost.counters import CostCounters
from repro.engine.database import Database
from repro.engine.query import Query

SIZE = 600
DOMAIN = 1_000

#: every registered strategy the planner can dispatch through, including
#: the non-adaptive baselines (scan / full-index / sort-first): the witness
#: must stay quiet on those too (no structural change, no spurious report)
ALL_STRATEGIES = [
    "scan",
    "sort-first",
    "full-index",
    "cracking",
    "stochastic-cracking",
    "sideways-cracking",
    "partial-cracking",
    "updatable-cracking",
    "adaptive-merging",
    "hybrid-crack-crack",
    "hybrid-crack-sort",
    "hybrid-sort-sort",
    "partitioned-cracking",
]


@contextmanager
def fresh_witness():
    """A fresh witness, restoring whatever was active before.

    A context manager rather than a fixture: hypothesis reuses the test
    function across generated inputs, so the witness must be re-armed
    inside the test body, per input.
    """
    previous = cost_witness_module.cost_witness()
    active = cost_witness_module.enable_cost_witness()
    try:
        yield active
    finally:
        cost_witness_module._WITNESS = previous


def build_database(mode, seed=7, **options):
    rng = np.random.default_rng(seed)
    database = Database(f"cost-witnessed-{mode}")
    database.create_table(
        "facts",
        {
            "key": rng.integers(0, DOMAIN, size=SIZE).astype(np.int64),
            "payload": rng.uniform(0, 100, size=SIZE),
        },
    )
    database.set_indexing("facts", "key", mode, **options)
    return database


query_bounds = st.lists(
    st.tuples(st.integers(-50, DOMAIN + 50), st.integers(-50, DOMAIN + 50)).map(
        lambda pair: (min(pair), max(pair))
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("mode", ALL_STRATEGIES)
@given(bounds=query_bounds)
@settings(max_examples=10, deadline=None)
def test_strategy_matrix_conforms(mode, bounds):
    """Every strategy pays for its reorganisation on any query sequence.

    Each query list is replayed twice (the second pass hits converged /
    already-merged ranges, where charges come from navigation, not
    movement) — a violation raises out of ``Session.execute`` directly.
    """
    with fresh_witness() as witness, build_database(mode).session() as session:
        for _ in range(2):
            for low, high in bounds:
                session.execute(Query.range_query("facts", "key", low, high))
        assert witness.violations() == []
        assert witness.queries_checked >= 2 * len(bounds)


@pytest.mark.parametrize("policy, merge_batch", [
    ("ripple", 16), ("gradual", 1), ("gradual", 3),
], ids=["ripple", "gradual-1", "gradual-3"])
@given(bounds=query_bounds, seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_updatable_strategies_conform_under_dml(policy, merge_batch, bounds, seed):
    """Pending-update merges (ripples) are paid for like any other query,
    whole or budgeted."""
    database = build_database("updatable-cracking", seed=seed % 13 + 1,
                              policy=policy, merge_batch=merge_batch)
    with fresh_witness() as witness, database.session() as session:
        rng = np.random.default_rng(seed)
        inserted = []
        for low, high in bounds:
            value = int(rng.integers(0, DOMAIN))
            inserted.append(
                session.insert_row("facts", {"key": value, "payload": 1.0})
            )
            if inserted and rng.integers(0, 2):
                session.delete_row("facts", inserted.pop())
            session.execute(Query.range_query("facts", "key", low, high))
        assert witness.violations() == []


@pytest.mark.parametrize("mode", ALL_STRATEGIES)
@given(bounds=query_bounds)
@settings(max_examples=10, deadline=None)
def test_batches_conform(mode, bounds):
    """A batch's one-pass crack is one witnessed operation: the batch's paths
    are fingerprinted before it and checked against the summed counters of
    its queries after it; each query is then witnessed as always."""
    queries = [Query.range_query("facts", "key", low, high) for low, high in bounds]
    with fresh_witness() as witness, build_database(mode).session() as session:
        for _ in range(2):
            session.execute_many(queries + queries[:1])
        assert witness.violations() == []
        assert witness.queries_checked >= 2 * len(bounds)


def test_a_batch_pass_that_charges_nothing_trips_the_witness(monkeypatch):
    """Without the bracket a free pass would go unseen: the queries behind
    it only read the answers it left, so their own fingerprints never move."""
    crack_for_free = CrackedColumn.search_many
    monkeypatch.setattr(
        CrackedColumn, "search_many",
        lambda column, ranges, counters_list: crack_for_free(
            column, ranges, [None] * len(ranges)))
    queries = [Query.range_query("facts", "key", low, low + 40)
               for low in range(0, DOMAIN, 100)]
    with fresh_witness() as witness, build_database("cracking").session() as session:
        with pytest.raises(cost_witness_module.CostConformanceViolation):
            session.execute_many(queries)
        assert "reorganized for free" in witness.violations()[0]
        assert "batch of 10 on facts.key" in witness.violations()[0]


# -- witness mechanism ---------------------------------------------------------


class _Reorganizer:
    """A fake access path whose fingerprint changes on demand."""

    def __init__(self):
        self.pieces = 1

    def __len__(self):
        return SIZE

    @property
    def nbytes(self):
        return 8 * SIZE

    @property
    def structure_description(self):
        return f"fake: {self.pieces} pieces"


class TestWitnessMechanism:
    def test_free_reorganization_raises(self):
        active = cost_witness_module.CostConformanceWitness()
        path = _Reorganizer()
        snapshots = active.before([("facts", "key", path)])
        path.pieces += 1  # reorganize...
        counters = CostCounters()  # ...but charge nothing
        with pytest.raises(cost_witness_module.CostConformanceViolation):
            active.after("q", snapshots, counters)
        assert "reorganized for free" in active.violations()[0]

    def test_paid_reorganization_passes(self):
        active = cost_witness_module.CostConformanceWitness()
        path = _Reorganizer()
        snapshots = active.before([("facts", "key", path)])
        path.pieces += 1
        counters = CostCounters()
        counters.record_comparisons(10)
        counters.record_move(5)
        active.after("q", snapshots, counters)
        assert active.violations() == []

    def test_unchanged_structure_needs_no_payment(self):
        active = cost_witness_module.CostConformanceWitness()
        path = _Reorganizer()
        snapshots = active.before([("facts", "key", path)])
        active.after("q", snapshots, CostCounters())
        assert active.violations() == []

    def test_counter_regression_raises(self):
        active = cost_witness_module.CostConformanceWitness()
        counters = CostCounters()
        counters.tuples_moved = -3
        with pytest.raises(cost_witness_module.CostConformanceViolation):
            active.after("q", active.before([]), counters)
        assert "regressed" in active.violations()[0]
