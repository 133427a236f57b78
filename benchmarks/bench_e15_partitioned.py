"""E15 — partitioned parallel cracking: shard count vs cost and wall-clock.

Partitioned cracking shards the column into P contiguous partitions, each
with a private cracker column and cracker index; a range selection cracks
only the partitions whose value range overlaps the predicate.  Expected
shape: the answer (and hence the per-query result sizes) is identical to
plain cracking for every P; the first-query cost is of the same order (the
copies are sharded, plus one bounds scan per touched partition); cumulative
logical cost stays within a small factor of plain cracking while convergence
is at least as fast per partition (each shard's key sub-range is smaller);
and with ``parallel=True`` the logical cost stays *identical* to the
sequential partitioned run (wall-clock only improves for the cold first
query of a large column — see ``docs/PERFORMANCE.md``).

The thread fan-out is swept at 1/2/4/8 workers: every cell of the sweep
must report logical cost bit-identical to the sequential partitioned run —
how the sub-selections are executed is a physical detail the cost model
never sees.
"""

import pytest

from bench_common import (
    make_column,
    make_spec,
    print_summary,
)
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.benchmark import AdaptiveIndexingBenchmark
from repro.workloads.generators import random_workload

PARTITION_COUNTS = [1, 2, 4, 8]

WORKER_COUNTS = [1, 2, 4, 8]


def run_experiment():
    values = make_column(size=100_000)
    queries = random_workload(make_spec(query_count=300, selectivity=0.01, seed=15))
    harness = AdaptiveIndexingBenchmark(values, queries)
    variants = {"cracking": ("cracking", {})}
    for count in PARTITION_COUNTS:
        variants[f"partitioned-{count}"] = (
            "partitioned-cracking",
            {"partitions": count, "parallel": False},
        )
    for workers in WORKER_COUNTS:
        variants[f"partitioned-8-thread-{workers}"] = (
            "partitioned-cracking",
            {"partitions": 8, "parallel": True, "max_workers": workers},
        )
    return harness.run(variants)


@pytest.mark.benchmark(group="e15-partitioned")
def test_e15_partitioned_cracking(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_summary("E15: partitioned cracking, 1/2/4/8 partitions", result)

    cumulative = result.cumulative_costs(DEFAULT_MAIN_MEMORY_MODEL)
    per_query = result.per_query_costs(DEFAULT_MAIN_MEMORY_MODEL)
    print("\ncumulative logical cost (end of run) per variant:")
    for label in sorted(cumulative):
        print(
            f"  {label:24s} total={cumulative[label][-1]:>14.0f} "
            f"first-query={per_query[label][0]:>12.0f} "
            f"converged@={result.runs[label].convergence_query}"
        )

    # every variant answers the same workload: result sizes must agree
    reference_counts = [
        s.result_count for s in result.runs["cracking"].statistics.queries
    ]
    for label, run in result.runs.items():
        counts = [s.result_count for s in run.statistics.queries]
        assert counts == reference_counts, f"{label} returned different result sizes"

    # partitioning keeps cumulative logical cost in the same ballpark as
    # plain cracking (sharded copies + per-partition bounds scans), far
    # below repeated scanning
    cracking_total = cumulative["cracking"][-1]
    scan_total = result.scan_cost * result.query_count
    for count in PARTITION_COUNTS:
        total = cumulative[f"partitioned-{count}"][-1]
        assert total < scan_total / 2
        assert total < cracking_total * 3

    # every worker-count cell does the same logical work as the sequential
    # partitioned run — execution mode never reaches the cost model
    sequential_total = cumulative["partitioned-8"][-1]
    for workers in WORKER_COUNTS:
        label = f"partitioned-8-thread-{workers}"
        assert cumulative[label][-1] == pytest.approx(
            sequential_total, rel=1e-9
        ), f"{label} diverged from the sequential logical cost"


if __name__ == "__main__":
    result = run_experiment()
    print_summary("E15: partitioned cracking, 1/2/4/8 partitions", result)
