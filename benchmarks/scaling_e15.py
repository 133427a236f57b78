"""E15 scaling smoke: thread fan-out × worker counts, for CI drift detection.

Runs the partitioned-cracking fan-out over one fixed workload under every
execution configuration — sequential, then the thread fan-out at 1/2/4/8
workers — and records, per configuration, the cumulative logical counters
and best-of-N wall-clock.  Like ``smoke_e01.py`` the scale is fixed and tiny
(independent of ``REPRO_BENCH_SCALE``), and ``--check`` enforces two
contracts:

* **logical counters are compared exactly**, both against the baseline and
  *across configurations within one run*: the fan-out's core promise is
  that logical cost accounting is execution-mode independent, so every
  worker-count cell must report the sequential run's totals bit for bit;
* **wall-clock is compared with a relative tolerance** (default ±50 %,
  override with ``REPRO_SMOKE_TOLERANCE``), per configuration, against the
  baseline's best-of-N minimum.  The band is wider than ``smoke_e01``'s:
  the thread cells are dominated by pool hand-off and scheduling, which
  are far noisier on shared runners than the compute-bound smoke cells —
  the exact counter identity above is the precise regression gate here,
  the wall-clock band only catches gross slowdowns.

Parallel speedup itself is a property of the *host* and of the column size:
the baseline records ``cpu_count`` and the thread speedup at 4 workers as
observed (below 1 at this scale: the kernels are far shorter than a pool
hand-off), not as a gate.  The process backend that used to share this
sweep never beat sequential (0.075x here, 49x slower at 1M rows) and was
removed with its option.

The baseline lives at the repository root as ``BENCH_e15_scaling.json``.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: rows in the smoke column (fixed: the smoke ignores REPRO_BENCH_SCALE)
SMOKE_ROWS = 8_000

#: queries in the smoke workload
SMOKE_QUERIES = 60

#: partitions of the column under test (worker counts sweep below it)
SMOKE_PARTITIONS = 8

#: worker counts swept for the thread fan-out
WORKER_COUNTS = (1, 2, 4, 8)

#: default relative wall-clock tolerance for --check (see module docstring
#: for why it is wider than smoke_e01's)
DEFAULT_TOLERANCE = 0.5

#: wall-clock measurability floor (seconds).  Higher than smoke_e01's:
#: the cells finish in a few tens of milliseconds where pool hand-off and
#: scheduler noise dominate, so their budgets come from the floor
MIN_MEASURABLE_SECONDS = 0.05

#: timing repeats; counters must be identical across repeats (asserted)
SMOKE_REPEATS = 3

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_e15_scaling.json"


def _configurations():
    configs = [("seq", {"parallel": False})]
    for workers in WORKER_COUNTS:
        configs.append(
            (f"thread-{workers}", {"parallel": True, "max_workers": workers})
        )
    return configs


def _workload():
    import numpy as np

    from repro.workloads.generators import generate_column_data

    values = generate_column_data(SMOKE_ROWS, 0, 1_000_000, seed=15)
    rng = np.random.default_rng(151)
    width = 1_000_000 * 0.02
    queries = [
        (float(low), float(low + width))
        for low in rng.uniform(0, 1_000_000 - width, size=SMOKE_QUERIES)
    ]
    return values, queries


def _run_config(values, queries, options) -> dict:
    from repro.core.partitioned import PartitionedCrackedColumn
    from repro.cost.counters import CostCounters

    counters = CostCounters()
    result_rows = 0
    with PartitionedCrackedColumn(
        values, partitions=SMOKE_PARTITIONS, **options
    ) as column:
        started = time.perf_counter()
        for low, high in queries:
            result_rows += len(column.search(low, high, counters))
        elapsed = time.perf_counter() - started
    return {
        "comparisons": int(counters.comparisons),
        "movements": int(counters.tuples_moved),
        "scans": int(counters.tuples_scanned),
        "result_rows": int(result_rows),
        "wall_clock_seconds": round(elapsed, 6),
    }


COUNTER_KEYS = ("comparisons", "movements", "scans", "result_rows")


def run_scaling() -> dict:
    """Every configuration at smoke scale; returns the serializable record."""
    values, queries = _workload()
    configurations = {}
    for _ in range(SMOKE_REPEATS):
        for label, options in _configurations():
            sample = _run_config(values, queries, options)
            current = configurations.get(label)
            if current is None:
                configurations[label] = sample
                continue
            for key in COUNTER_KEYS:
                assert sample[key] == current[key], (
                    f"{label}: {key} differs across repeats — the smoke "
                    f"workload is supposed to be deterministic"
                )
            current["wall_clock_seconds"] = min(
                current["wall_clock_seconds"], sample["wall_clock_seconds"]
            )
    # the fan-out's core contract: identical logical totals in every cell
    reference = configurations["seq"]
    for label, sample in configurations.items():
        for key in COUNTER_KEYS:
            assert sample[key] == reference[key], (
                f"{label}: {key} = {sample[key]} diverges from sequential "
                f"{reference[key]} — logical cost accounting must be "
                f"execution-mode independent"
            )
    speedups = {
        "thread": round(
            configurations["seq"]["wall_clock_seconds"]
            / max(configurations["thread-4"]["wall_clock_seconds"], 1e-9),
            3,
        )
    }
    return {
        "rows": SMOKE_ROWS,
        "queries": SMOKE_QUERIES,
        "partitions": SMOKE_PARTITIONS,
        "cpu_count": os.cpu_count() or 1,
        "speedup_at_4_workers": speedups,
        "configurations": configurations,
    }


def check(current: dict, baseline: dict, tolerance: float) -> list:
    """Compare a fresh run against the baseline; returns failure messages."""
    failures = []
    if set(current["configurations"]) != set(baseline["configurations"]):
        failures.append(
            f"configuration set changed: baseline "
            f"{sorted(baseline['configurations'])} vs current "
            f"{sorted(current['configurations'])}"
        )
        return failures
    for key in ("rows", "queries", "partitions"):
        if current[key] != baseline[key]:
            failures.append(
                f"smoke scale changed ({key}: {baseline[key]} -> "
                f"{current[key]}); refresh the baseline deliberately"
            )
    for label, now in current["configurations"].items():
        then = baseline["configurations"][label]
        for key in COUNTER_KEYS:
            if now[key] != then[key]:
                failures.append(
                    f"{label}: {key} drifted {then[key]} -> {now[key]} "
                    f"(logical counters are deterministic; a real change "
                    f"must refresh the baseline)"
                )
        before_wall = then["wall_clock_seconds"]
        after_wall = now["wall_clock_seconds"]
        budget = max(before_wall, MIN_MEASURABLE_SECONDS) * (1.0 + tolerance)
        if before_wall > 0 and after_wall > budget:
            failures.append(
                f"{label}: wall-clock regressed {before_wall:.4f}s -> "
                f"{after_wall:.4f}s (> {budget:.4f}s budget: "
                f"+{tolerance:.0%} over max(baseline, "
                f"{MIN_MEASURABLE_SECONDS}s floor))"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scaling_e15",
        description="thread fan-out scaling smoke for CI drift detection",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--write", action="store_true",
        help=f"write the baseline to {BASELINE_PATH.name}",
    )
    action.add_argument(
        "--check", action="store_true",
        help="run and compare against the checked-in baseline",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), metavar="JSON",
        help="baseline path (default: repository root BENCH_e15_scaling.json)",
    )
    args = parser.parse_args(argv)

    record = run_scaling()
    baseline_path = Path(args.baseline)
    if args.write:
        baseline_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"scaling_e15: baseline written to {baseline_path}")
        return 0

    if not baseline_path.exists():
        print(f"scaling_e15: no baseline at {baseline_path}", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    tolerance = float(
        os.environ.get("REPRO_SMOKE_TOLERANCE", str(DEFAULT_TOLERANCE))
    )
    failures = check(record, baseline, tolerance)
    for message in failures:
        print(f"scaling_e15: {message}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"scaling_e15: OK — counters identical across "
        f"{len(record['configurations'])} execution configurations, "
        f"wall-clock within ±{tolerance:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
