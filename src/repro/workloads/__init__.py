"""Workload generation and the adaptive-indexing benchmark.

* :mod:`repro.workloads.generators` — range-query workloads with the access
  patterns studied across the adaptive-indexing papers: uniform random,
  skewed (zipfian focus), sequential, periodic, and piecewise-focused
  (workload shifts).
* :mod:`repro.workloads.updates` — interleaved insert/delete streams for the
  cracking-updates experiments.
* :mod:`repro.workloads.tpch_like` — a small synthetic star-schema data
  generator exercising the multi-column / tuple-reconstruction code path
  that sideways cracking targets (stand-in for TPC-H, see DESIGN.md).
* :mod:`repro.workloads.metrics` / :mod:`repro.workloads.benchmark` — the
  benchmark of Graefe, Idreos, Kuno & Manegold (TPCTC 2010): initialization
  cost, convergence point, the one measuring loop (``run_operations``: an
  operation stream against a strategy or a session) and a harness that runs
  many strategies over the same stream through it and reports both.
"""

from repro.workloads.benchmark import (
    AdaptiveIndexingBenchmark,
    BenchmarkResult,
    run_operations,
)
from repro.workloads.generators import (
    RangeQuery,
    WorkloadSpec,
    periodic_workload,
    piecewise_focus_workload,
    random_workload,
    sequential_workload,
    skewed_workload,
)
from repro.workloads.metrics import convergence_point, initialization_overhead
from repro.workloads.updates import UpdateOperation, mixed_update_workload

__all__ = [
    "AdaptiveIndexingBenchmark",
    "BenchmarkResult",
    "run_operations",
    "RangeQuery",
    "WorkloadSpec",
    "random_workload",
    "skewed_workload",
    "sequential_workload",
    "periodic_workload",
    "piecewise_focus_workload",
    "convergence_point",
    "initialization_overhead",
    "UpdateOperation",
    "mixed_update_workload",
]
