"""E13 — offline, online, soft and adaptive indexing under a workload shift.

Source: the tutorial's positioning of adaptive indexing against offline
what-if tuning, online (monitor-and-tune / COLT-style) tuning and soft
indexes.  Expected shape on a workload whose focus shifts periodically:

* the offline index built for the *first* focus keeps helping only while the
  workload stays there; it was also built from a sample, at full build cost;
* the online tuner needs to re-observe enough benefit after every shift
  before it (re)builds, so a window of expensive queries follows each shift,
  and the triggering query pays the full build;
* soft indexes piggy-back the build on a scan but still build completely,
  so the carrying query spikes;
* database cracking reacts within the very first query after the shift and
  never pays more than a scan-like cost for any single query.
"""

import numpy as np
import pytest

from bench_common import make_column
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.generators import WorkloadSpec, piecewise_focus_workload

QUERY_COUNT = 400
SHIFT_EVERY = 100


def build_workload():
    spec = WorkloadSpec(
        domain_low=0.0, domain_high=1_000_000.0, query_count=QUERY_COUNT,
        selectivity=0.01, seed=13,
    )
    return piecewise_focus_workload(spec, shift_every=SHIFT_EVERY, focus_fraction=0.1)


def run_experiment():
    values = make_column(size=100_000)
    queries = build_workload()
    model = DEFAULT_MAIN_MEMORY_MODEL
    # every approach is one name of the strategy registry; the offline index
    # is built here, up front (its cost is recorded separately, not per query)
    strategies = {
        "scan": create_strategy("scan", values),
        "offline-index": create_strategy("full-index", values),
        "online-tuning": create_strategy(
            "online", values, build_threshold_factor=1.0
        ),
        "soft-index": create_strategy("soft", values, recommendation_threshold=10),
        "cracking": create_strategy("cracking", values),
    }
    costs = {}
    for label, strategy in strategies.items():
        series = []
        for query in queries:
            counters = CostCounters()
            strategy.search(query.low, query.high, counters)
            series.append(model.cost(counters))
        costs[label] = series
    offline_build_cost = model.cost(strategies["offline-index"].build_counters)
    return costs, offline_build_cost


@pytest.mark.benchmark(group="e13-online-vs-adaptive")
def test_e13_offline_online_soft_adaptive(benchmark):
    costs, offline_build_cost = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n=== E13: shifting focus — offline vs online vs soft vs adaptive ===")
    print(f"{'approach':>16s} {'total cost':>14s} {'worst query':>13s} {'first 20 after shift 2':>24s}")
    shift_start = SHIFT_EVERY
    summary = {}
    for name, series in costs.items():
        arr = np.asarray(series)
        after_shift = float(np.mean(arr[shift_start:shift_start + 20]))
        summary[name] = {
            "total": float(arr.sum()),
            "worst": float(arr.max()),
            "after_shift": after_shift,
        }
        print(
            f"{name:>16s} {summary[name]['total']:>14.0f} {summary[name]['worst']:>13.0f} "
            f"{after_shift:>24.0f}"
        )
    print(f"(offline index build cost paid before the workload: {offline_build_cost:.0f})")

    scan_query_cost = summary["scan"]["total"] / QUERY_COUNT
    # cracking never penalises an individual query with anything close to a
    # full index build — its worst query stays in the scan ballpark
    assert summary["cracking"]["worst"] < 4 * scan_query_cost
    # online tuning and soft indexes each have at least one query that paid
    # a full (or near-full) index build: the penalised-query weakness the
    # tutorial attributes to monitor-and-tune approaches
    assert summary["online-tuning"]["worst"] > 4 * scan_query_cost
    assert summary["soft-index"]["worst"] > 4 * scan_query_cost
    assert summary["online-tuning"]["worst"] > 2 * summary["cracking"]["worst"]
    # before the monitor-and-tune threshold triggers, online tuning gets no
    # index support at all, while cracking already benefits from query two
    early = slice(1, 8)
    assert (
        np.mean(np.asarray(costs["cracking"])[early])
        < np.mean(np.asarray(costs["online-tuning"])[early])
    )
    # every indexing approach beats pure scanning over the workload
    for name in ("cracking", "online-tuning", "soft-index", "offline-index"):
        assert summary[name]["total"] < summary["scan"]["total"]
    # on a single hot column and a long workload, building the full index
    # eventually amortises, so online tuning's *total* can undercut
    # cracking; the offline index is unbeatable per query — but only
    # because its (large) build cost was paid outside the workload
    assert summary["offline-index"]["total"] < summary["cracking"]["total"]
    assert offline_build_cost > 3 * scan_query_cost
