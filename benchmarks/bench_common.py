"""Shared helpers for the experiment benchmarks.

Every ``bench_eXX_*.py`` file regenerates one experiment of EXPERIMENTS.md.
The helpers here keep the individual files small: build the column, build the
workload, run a set of strategies through the adaptive-indexing benchmark
harness, and print the rows/series the experiment reports.

Scale knobs
-----------
The default sizes keep ``pytest benchmarks/ --benchmark-only`` at a few
minutes.  Set the environment variable ``REPRO_BENCH_SCALE`` to a float to
scale the column sizes and query counts up (e.g. ``REPRO_BENCH_SCALE=8`` for
paper-like sizes) or down.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cost.model import CostModel, DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.benchmark import AdaptiveIndexingBenchmark, BenchmarkResult
from repro.workloads.generators import (
    RangeQuery,
    WorkloadSpec,
    generate_column_data,
)

#: scale factor applied to column sizes and query counts
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: default column size (rows) for the single-column experiments
COLUMN_SIZE = int(100_000 * SCALE)

#: default number of queries per workload
QUERY_COUNT = max(50, int(500 * SCALE))

#: key domain shared by column data and workloads
DOMAIN_HIGH = 1_000_000.0

#: the strategy set most experiments compare
CORE_STRATEGIES = ["scan", "sort-first", "full-index", "cracking", "adaptive-merging"]

#: the full adaptive family for the hybrid experiments
HYBRID_STRATEGIES = [
    "cracking",
    "adaptive-merging",
    "hybrid-crack-crack",
    "hybrid-crack-sort",
    "hybrid-crack-radix",
    "hybrid-sort-sort",
    "hybrid-radix-radix",
]


def make_column(size: int = None, distribution: str = "uniform", seed: int = 0) -> np.ndarray:
    """Base column used by the single-column experiments."""
    return generate_column_data(
        size or COLUMN_SIZE, 0, DOMAIN_HIGH, distribution=distribution, seed=seed
    )


def make_spec(
    query_count: int = None,
    selectivity: float = 0.01,
    seed: int = 1,
) -> WorkloadSpec:
    """Workload specification over the shared key domain."""
    return WorkloadSpec(
        domain_low=0.0,
        domain_high=DOMAIN_HIGH,
        query_count=query_count or QUERY_COUNT,
        selectivity=selectivity,
        seed=seed,
    )


def run_comparison(
    values: np.ndarray,
    queries: Sequence[RangeQuery],
    strategies: Iterable[str],
    options: Optional[Dict[str, dict]] = None,
    cost_model: CostModel = DEFAULT_MAIN_MEMORY_MODEL,
) -> BenchmarkResult:
    """Run ``strategies`` over the workload and return the benchmark result."""
    harness = AdaptiveIndexingBenchmark(values, queries, cost_model=cost_model)
    options = options or {}
    return harness.run({name: (name, options.get(name, {})) for name in strategies})


def print_summary(title: str, result: BenchmarkResult) -> None:
    """Print the per-strategy summary table of one experiment."""
    print(f"\n=== {title} ===")
    print(
        f"column size = {result.column_size}, queries = {result.query_count}, "
        f"scan cost = {result.scan_cost:.0f}, full-index cost = {result.full_index_cost:.0f}"
    )
    header = (
        f"{'strategy':24s} {'first-query/scan':>16s} {'converged@':>11s} "
        f"{'total cost':>14s} {'total seconds':>14s} {'aux bytes':>12s}"
    )
    print(header)
    print("-" * len(header))
    for row in result.summary_table():
        converged = row["convergence_query"]
        print(
            f"{row['strategy']:24s} "
            f"{row['first_query_overhead_vs_scan']:>16.2f} "
            f"{str(converged if converged is not None else '-'):>11s} "
            f"{row['total_logical_cost']:>14.0f} "
            f"{row['total_seconds']:>14.4f} "
            f"{row['auxiliary_bytes']:>12d}"
        )


def print_series(
    title: str,
    series: Dict[str, List[float]],
    sample_points: Sequence[int] = (0, 1, 2, 5, 10, 20, 50, 100, 200, 499, 999),
) -> None:
    """Print per-query (or cumulative) cost series sampled at a few query indexes."""
    print(f"\n--- {title} ---")
    names = sorted(series)
    length = min(len(values) for values in series.values())
    points = [p for p in sample_points if p < length]
    header = f"{'query':>6s} " + " ".join(f"{name:>22s}" for name in names)
    print(header)
    for point in points:
        row = f"{point:>6d} " + " ".join(f"{series[name][point]:>22.0f}" for name in names)
        print(row)


def tail_mean(series: List[float], fraction: float = 0.1) -> float:
    """Mean of the last ``fraction`` of a per-query cost series."""
    count = max(1, int(len(series) * fraction))
    return float(np.mean(series[-count:]))


def stats_snapshot(column, *attributes: str) -> Dict[str, int]:
    """Atomically read a strategy's shared statistics counters.

    Statistics like ``merges_performed`` / ``partition_splits`` are declared
    ``@guarded_by(..., "_stats_lock")``: with a parallel fan-out column (or
    the concurrent-session experiments) pool workers update them under the
    object's stats lock, so reading them bare from the driver thread is a
    data race — individually torn reads, and multi-attribute snapshots that
    mix states from two different moments.  This helper takes the object's
    ``_stats_lock`` (when it has one) around *all* requested reads, so the
    returned dict is one consistent snapshot.

    Objects without a ``_stats_lock`` are plain single-threaded structures
    (e.g. an adaptive-merging index); their attributes are read
    directly — the single benchmark driver thread is the only writer.
    """
    lock = getattr(column, "_stats_lock", None)
    if lock is None:
        return {name: getattr(column, name) for name in attributes}
    with lock:
        return {name: getattr(column, name) for name in attributes}
