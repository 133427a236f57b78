"""E12 — partial (storage-bounded) cracking: performance vs storage budget.

Source: the partial/sideways cracking work (SIGMOD 2009) and the tutorial's
storage-bounds discussion.  Expected shape: with an unlimited budget,
partial cracking behaves like cracking (auxiliary structures for the touched
value ranges only); as the budget shrinks, fragments must be evicted and
re-materialised, so total cost rises; with a budget too small to hold any
fragment, behaviour degrades towards repeated scanning — a smooth
performance/storage trade-off rather than a cliff.
"""

import numpy as np
import pytest

from bench_common import make_column, make_spec
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.generators import random_workload

#: budget expressed as a fraction of the fully materialised cracker structures
BUDGET_FRACTIONS = [None, 1.0, 0.5, 0.25, 0.05]


def run_experiment():
    values = make_column(size=100_000)
    full_structures_bytes = int(values.nbytes * 3)  # values + rowids + fragment rowids
    queries = random_workload(make_spec(query_count=300, selectivity=0.01, seed=12))
    results = {}
    for fraction in BUDGET_FRACTIONS:
        budget = (
            None if fraction is None else int(full_structures_bytes * fraction)
        )
        strategy = create_strategy(
            "partial-cracking", values, budget_bytes=budget, fragments=16
        )
        costs = []
        for query in queries:
            counters = CostCounters()
            strategy.search(query.low, query.high, counters)
            costs.append(DEFAULT_MAIN_MEMORY_MODEL.cost(counters))
        results[fraction] = {
            "total": float(np.sum(costs)),
            "evictions": strategy.partial.evictions,
            "fallback_scans": strategy.partial.fallback_scans,
            "used_bytes": strategy.nbytes,
        }
    scan_total = 3.0 * len(values) * len(queries)
    return results, scan_total


@pytest.mark.benchmark(group="e12-partial-cracking")
def test_e12_storage_budget_tradeoff(benchmark):
    results, scan_total = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n=== E12: partial cracking under storage budgets ===")
    print(f"{'budget':>10s} {'total cost':>14s} {'evictions':>10s} {'fallback scans':>15s} {'aux bytes':>12s}")
    for fraction, row in results.items():
        label = "unlimited" if fraction is None else f"{fraction:.0%}"
        print(
            f"{label:>10s} {row['total']:>14.0f} {row['evictions']:>10d} "
            f"{row['fallback_scans']:>15d} {row['used_bytes']:>12d}"
        )
    print(f"{'scan-only':>10s} {scan_total:>14.0f}")

    # cost grows monotonically (within noise) as the budget shrinks
    assert results[1.0]["total"] <= results[0.25]["total"] * 1.1
    assert results[0.25]["total"] <= results[0.05]["total"] * 1.1
    # generous budgets never evict; tight budgets do
    assert results[None]["evictions"] == 0
    assert results[0.25]["evictions"] > 0
    # the unlimited budget is far below repeated scanning; the tightest
    # budget degrades gracefully towards (roughly) scan-only behaviour
    # instead of falling off a cliff
    assert results[None]["total"] < scan_total / 5
    assert results[0.05]["total"] <= scan_total * 1.25
    # storage accounting respects the budget
    for fraction, row in results.items():
        if fraction is not None:
            assert row["used_bytes"] <= int(3 * 8 * 100_000 * fraction) + 1
