"""E9 — sideways cracking: self-organising tuple reconstruction.

Source: Self-organizing tuple reconstruction in column stores, SIGMOD 2009.
Expected shape: for multi-column select/project queries, answering with a
cracked selection column plus late tuple reconstruction degenerates into
random access (gather per projected column per query), while sideways
cracking keeps selection and projection columns aligned in cracker maps so
the projected values come out of contiguous memory.  The random-access
counter (the dominant cost driver on modern hardware) collapses by orders of
magnitude; plain scanning reads everything every time.
"""

import numpy as np
import pytest

from bench_common import SCALE
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.tpch_like import (
    TPCHLikeConfig,
    build_database,
    shipping_priority_queries,
)

CONFIG = TPCHLikeConfig(fact_rows=int(60_000 * SCALE), seed=9)
QUERY_COUNT = 150


def run_mode(mode: str):
    """Run the multi-column workload under one physical-design mode."""
    database = build_database(CONFIG)
    if mode == "cracking+late-reconstruction":
        database.set_indexing("lineorder", "orderdate", "cracking")
    elif mode == "sideways-cracking":
        database.set_indexing("lineorder", "orderdate", "sideways-cracking")
    queries = shipping_priority_queries(CONFIG, query_count=QUERY_COUNT, seed=10)
    with database.session() as session:
        stats = session.run_workload(queries, strategy_label=mode)
    totals = stats.total_counters()
    per_query = stats.per_query_cost(DEFAULT_MAIN_MEMORY_MODEL)
    tail = per_query[-QUERY_COUNT // 5:]
    return {
        "stats": stats,
        "total_cost": sum(per_query),
        "tail_cost": float(np.mean(tail)),
        "random_accesses": totals.random_accesses,
        "tuples_scanned": totals.tuples_scanned,
        "results": [q.result_count for q in stats],
    }


def run_experiment():
    return {
        mode: run_mode(mode)
        for mode in ("scan", "cracking+late-reconstruction", "sideways-cracking")
    }


@pytest.mark.benchmark(group="e09-sideways")
def test_e09_sideways_cracking(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n=== E9: multi-column select/project on the star schema ===")
    print(f"{'mode':>32s} {'total cost':>14s} {'tail cost':>11s} {'random accesses':>16s} {'tuples scanned':>15s}")
    for mode, row in results.items():
        print(
            f"{mode:>32s} {row['total_cost']:>14.0f} {row['tail_cost']:>11.0f} "
            f"{row['random_accesses']:>16d} {row['tuples_scanned']:>15d}"
        )

    # all three modes return identical result cardinalities
    assert results["scan"]["results"] == results["sideways-cracking"]["results"]
    assert results["scan"]["results"] == results["cracking+late-reconstruction"]["results"]
    # sideways cracking eliminates (almost all) random access
    assert (
        results["sideways-cracking"]["random_accesses"]
        < results["cracking+late-reconstruction"]["random_accesses"] / 10
    )
    # it clearly beats scanning on total cost
    assert results["sideways-cracking"]["total_cost"] < results["scan"]["total_cost"] / 2
    # against cracking + late reconstruction, the maps pay extra
    # reorganisation early on (every projected attribute is cracked), so the
    # decisive comparison is the steady state: once the maps are refined,
    # sideways queries run on contiguous data while late reconstruction
    # keeps paying random gathers per query
    assert (
        results["sideways-cracking"]["tail_cost"]
        < results["cracking+late-reconstruction"]["tail_cost"]
    )
