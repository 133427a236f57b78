"""No full-column pass per operation on the session's hot paths.

Classifying a query (is the cracked column still reorganising?), deleting a
base row and re-absorbing a tombstone at ``set_indexing`` each used to make
one pass over the whole cracker column.  Such a pass cannot hide from
``tracemalloc``: numpy registers its buffers there, and a comparison over
``n`` elements allocates an ``n``-byte mask.  So the tests below arm tracing
around the call under test only and bound the peak by ``n / 8`` bytes — no
clock involved.  (The kernels' own piece-sized temporaries, and the
materialising copy, are legitimate and stay outside the traced region or are
common to both sides of the comparison.)

Adaptive merging is held to the same two standards per query: no copy of the
final partition or of a run (``tracemalloc``), and no Python-level work per
run (``sys.setprofile`` counts calls, so the run count can be varied with the
column held fixed).  So is an updatable cracked column: merging a pending
update makes no call per piece, and deciding that nothing pending qualifies
converts no pending entry.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.engine.concurrency import classify_plan
from repro.engine.database import Database
from repro.engine.query import Query

ROWS = 200_000
DOMAIN = 2_000_000
BUDGET = ROWS // 8  # bytes
TOMBSTONES = 250


def traced_peak(call) -> int:
    """Peak bytes allocated while ``call`` runs (tracing armed only here)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def call_events(call, name=None) -> int:
    """Function calls, Python-level and C-level, made while ``call`` runs;
    given a ``name``, only the C-level calls of functions of that name."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if name is None:
            events += event in ("call", "c_call")
        else:
            events += event == "c_call" and arg.__name__ == name

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return events


def build_database(mode, seed=21, **options):
    rng = np.random.default_rng(seed)
    database = Database(f"no-full-pass-{mode}")
    database.create_table("t", {
        "key": rng.integers(0, DOMAIN, size=ROWS).astype(np.int64),
        "pay": rng.uniform(0, 1, size=ROWS),
    })
    if mode != "scan":
        database.set_indexing("t", "key", mode, **options)
    return database, rng


@pytest.mark.parametrize("mode, options", [
    ("cracking", {}),
    ("partitioned-cracking", {"partitions": 4}),
])
def test_classifying_a_query_on_an_unconverged_column_allocates_no_mask(
        mode, options):
    database, rng = build_database(mode, **options)
    peak = 0
    with database.session() as session:
        for low in rng.integers(0, DOMAIN - 2_000, size=200).tolist():
            query = Query.range_query("t", "key", float(low), float(low + 2_000))
            plan = database.planner.plan(query)
            for _ in range(2):  # before the query's own cracks, and after
                claims = []
                peak = max(peak, traced_peak(
                    lambda: claims.extend(classify_plan(database, plan))))
                assert [claim.exclusive for claim in claims] == [True]
                session.execute(query)
    database.close()
    assert peak < BUDGET, f"classification allocated {peak} B on {ROWS} rows"


def test_deleting_a_base_row_allocates_no_mask():
    database, rng = build_database("updatable-cracking")
    peak = 0
    with database.session() as session:
        for low in rng.integers(0, DOMAIN - 2_000, size=20).tolist():
            session.execute(Query.range_query("t", "key", low, low + 2_000))
        for rowid in rng.choice(ROWS, size=200, replace=False).tolist():
            peak = max(peak, traced_peak(
                lambda: session.delete_row("t", rowid)))
        assert database.access_path("t", "key").pending_deletes == 200
    database.close()
    assert peak < BUDGET, f"a base-row delete allocated {peak} B on {ROWS} rows"


def test_reabsorbing_tombstones_costs_no_pass_per_tombstone():
    """The recovery path: ``set_indexing`` over a table that carries deletes.

    A queued delete legitimately keeps ≈70 B (its queue entry), so the
    tombstone count is sized to leave the queue well inside the budget; one
    mask over the column, for any one of them, would not be.
    """
    peaks = {}
    for tombstones in (0, TOMBSTONES):
        database, rng = build_database("scan")
        with database.session() as session:
            for rowid in rng.choice(ROWS, size=tombstones, replace=False).tolist():
                session.delete_row("t", rowid)
        peaks[tombstones] = traced_peak(
            lambda: database.set_indexing("t", "key", "updatable-cracking"))
        cracked = database.access_path("t", "key")
        assert cracked.pending_deletes == tombstones
        database.close()
    extra = peaks[TOMBSTONES] - peaks[0]
    assert extra < BUDGET, (
        f"{TOMBSTONES} tombstones raised the peak of set_indexing by "
        f"{extra} B on {ROWS} rows"
    )



def test_merging_queries_copy_neither_the_runs_nor_the_final_partition():
    """With 45 % of the column merged, 0.1 % ranges — inside the merged
    stretch, outside it and across its edge, float bounds on integer keys —
    stay within the budget: no rebuilt final partition (16 B per merged
    row), no rebuilt run, no cast of either to the bound's type.  What a
    query does allocate is its own block and a handful of index vectors of
    8 B per (run, bound) lane; 200 runs keep those a fraction of the budget,
    which at the default √n runs they would mostly use up on a column this
    small."""
    database, rng = build_database("adaptive-merging", run_size=1_000)
    width = DOMAIN // 1_000
    peak = 0
    with database.session() as session:
        merged = session.execute(
            Query.range_query("t", "key", 0.0, 0.45 * DOMAIN)).row_count
        assert merged >= 0.4 * ROWS
        for low in rng.integers(0, DOMAIN - width, size=100).tolist():
            query = Query.range_query("t", "key", float(low), float(low + width))
            peak = max(peak, traced_peak(lambda: session.execute(query)))
    database.close()
    assert peak < BUDGET, f"a merging query allocated {peak} B on {ROWS} rows"


def test_a_merging_query_makes_no_call_per_run():
    """Sixteen times the runs over the same column: the calls one merging
    query makes must not follow (the bisection rounds even fall, with the
    run size)."""
    events = {}
    for runs in (100, 1_600):
        database, _ = build_database("adaptive-merging", run_size=ROWS // runs)
        with database.session() as session:
            session.execute(Query.range_query("t", "key", 0.0, 2_000.0))
            assert database.access_path("t", "key").run_count == runs
            query = Query.range_query("t", "key", 500_000.0, 502_000.0)
            events[runs] = call_events(lambda: session.execute(query))
        database.close()
    assert events[1_600] < 2 * events[100], events


def test_a_gap_is_located_in_one_bisection():
    """A merging query whose range is one gap locates both of its bounds in
    every run with a single bisection: one gather of probes per round, and
    ``bit_length(1 000)`` = 10 rounds — not ten rounds per bound."""
    run_size = 1_000
    database, _ = build_database("adaptive-merging", run_size=run_size)
    with database.session() as session:
        session.execute(Query.range_query("t", "key", 0.0, 2_000.0))
        query = Query.range_query("t", "key", 500_000.0, 502_000.0)
        takes = call_events(lambda: session.execute(query), "take")
        merged = database.access_path("t", "key").merged_ranges
        assert merged.uncovered(0, 502_000) == [(2_000, 500_000)]
    database.close()
    assert takes == run_size.bit_length(), takes


def test_merging_a_pending_update_makes_no_call_per_piece():
    """One pending insert and one pending delete rippled into the same
    column cut into sixteen times the pieces: every later piece gives up one
    element either way (a gather/scatter), but the calls made must not
    follow the piece count."""
    events = {}
    for pieces in (1_000, 16_000):
        database, rng = build_database("updatable-cracking")
        cracked = database.access_path("t", "key")
        # in random order, so that each crack splits a piece, not the rest
        for pivot in rng.permutation(
                np.linspace(0, DOMAIN, pieces, endpoint=False)[1:]):
            cracked.crack_at(int(pivot))
        assert cracked.piece_count == pieces
        with database.session() as session:
            # the first pass warms the path up, the second is measured
            for low in (600_000, 2_000):
                query = Query.range_query("t", "key", low, low + 2_000)
                victim = int(session.execute(query).positions[0])
                session.insert_row("t", {"key": low + 1_000, "pay": 0.5})
                session.delete_row("t", victim)
                merged = cracked.merges_performed
                events[pieces] = call_events(lambda: session.execute(query))
                assert cracked.merges_performed == merged + 2
        database.close()
    assert events[16_000] < 2 * events[1_000], events


def test_a_query_converts_no_pending_entry_it_does_not_merge():
    """4 000 queued deletes, none inside the query's range: deciding so is a
    mask over the typed queues (a byte or two per entry), not arrays built
    from the queued Python objects (16 B per entry, twice)."""
    pending = 4_000
    database, _ = build_database("updatable-cracking")
    keys = database.table("t")["key"].values
    query = Query.range_query("t", "key", 1_000, 3_000)
    with database.session() as session:
        session.execute(query)
        for rowid in np.flatnonzero(keys >= 10_000)[:pending].tolist():
            session.delete_row("t", rowid)
        peak = max(traced_peak(lambda: session.execute(query))
                   for _ in range(3))
        cracked = database.access_path("t", "key")
        assert cracked.pending_deletes == pending
    database.close()
    assert peak < 16 * pending, (
        f"a query allocated {peak} B beside {pending} pending updates")

