"""E10 — adaptive merging vs database cracking: activeness vs laziness.

Source: Self-selecting, self-tuning, incrementally optimized indexes,
EDBT 2010 (and the comparison framing of PVLDB 2011).  Expected shape:
adaptive merging pays noticeably more on the first query (run generation
sorts every partition) but each subsequent query removes its key range from
the runs for good, so per-query cost falls to index-lookup level after far
fewer queries than cracking, whose lazy single cuts leave large unsorted
pieces around for a long time.  Structurally: the fraction of tuples already
moved into the final (fully optimised) partition grows much faster for
adaptive merging.
"""

import numpy as np
import pytest

from bench_common import make_column, print_series
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.generators import WorkloadSpec, random_workload

QUERIES = 400


def run_experiment():
    values = make_column(size=100_000)
    spec = WorkloadSpec(
        domain_low=0.0, domain_high=1_000_000.0, query_count=QUERIES,
        selectivity=0.02, seed=10,
    )
    queries = random_workload(spec)
    series = {}
    merged_fraction = {}
    for name in ("cracking", "adaptive-merging"):
        strategy = create_strategy(name, values, run_size=2_000)
        costs = []
        fractions = []
        for query in queries:
            counters = CostCounters()
            strategy.search(query.low, query.high, counters)
            costs.append(DEFAULT_MAIN_MEMORY_MODEL.cost(counters))
            if name == "adaptive-merging":
                fractions.append(strategy.index.merged_count / len(values))
        series[name] = costs
        if name == "adaptive-merging":
            merged_fraction[name] = fractions
    return values, series, merged_fraction


@pytest.mark.benchmark(group="e10-adaptive-merging")
def test_e10_merging_vs_cracking(benchmark):
    values, series, merged_fraction = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series("E10: per-query cost, cracking vs adaptive merging", series)
    fractions = merged_fraction["adaptive-merging"]
    print(
        "\nfraction of tuples in the final partition after "
        f"10/50/100/{QUERIES} queries: "
        f"{fractions[9]:.2f} / {fractions[49]:.2f} / {fractions[99]:.2f} / {fractions[-1]:.2f}"
    )

    cracking = np.asarray(series["cracking"])
    merging = np.asarray(series["adaptive-merging"])
    # first query: merging pays more (run generation sorts all partitions)
    assert merging[0] > cracking[0]
    # convergence: count queries until per-query cost falls below a fixed
    # "index-like" threshold and stays there on average
    threshold = 6.0 * 0.02 * len(values)  # a few times the average result size
    merging_converged = np.argmax(
        [np.mean(merging[i:i + 10]) < threshold for i in range(len(merging) - 10)]
    )
    cracking_converged = np.argmax(
        [np.mean(cracking[i:i + 10]) < threshold for i in range(len(cracking) - 10)]
    )
    print(f"queries until sustained index-like cost: adaptive merging = {merging_converged}, "
          f"cracking = {cracking_converged}")
    assert merging_converged < cracking_converged
    # by the end, most of the column has been merged into the final partition
    assert fractions[-1] > 0.9
