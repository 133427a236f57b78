"""e21: the layered macro-benchmark — entry point.

Driver protocol (one workload, one process)::

    python3 benchmarks/e21_layers/run.py --workload explore_crack --seed 21 \\
        --seconds 15 --trace 0

prints a readable report and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` makes the
separate traced run that yields the per-layer metrics and writes the spans
as JSON lines under ``out/``.  The exit code is non-zero when any operation
raised or disagreed with the oracle.

Whole-benchmark modes (each workload in its own fresh subprocess)::

    python3 benchmarks/e21_layers/run.py --all [--seed N] [--trace 1]
    python3 benchmarks/e21_layers/run.py --selfcheck

``--selfcheck`` runs two sets of ``SELFCHECK_REPS`` runs with one seed,
alternating between them, and requires that neither set's median is worse
than the other's by more than the metric's stored bound and that every exact
count is identical across all runs; then it runs a second seed once (report
only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

# sibling modules import each other by top-level name, whether this file is
# run as a script, as ``python -m benchmarks.e21_layers.run`` or under pytest
sys.path.insert(0, str(Path(__file__).resolve().parent))

import e21_common as common  # noqa: E402
from e21_common import OUT_DIR, REFERENCE_SECONDS, ROWS  # noqa: E402

BENCHMARK_JSON = common.REPO_ROOT / "BENCHMARK.json"
DEFAULT_SEED = 21
#: runs per set in ``--selfcheck`` (medians are compared)
SELFCHECK_REPS = 3


def load_contract() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text())


# -- one workload, this process ------------------------------------------------------


def _print_measurements(title: str, measurements: Dict[str, Dict[str, object]]) -> None:
    if not measurements:
        return
    print(f"  {title}")
    for name, m in measurements.items():
        print(f"    {name:<44} {m['value']:>16.6g} {m['unit']:<8} n={m['samples']}")


def print_report(report: Dict[str, object]) -> None:
    print(f"== {report['workload']}  (trace={report['trace']})")
    _print_measurements("metrics", report["metrics"])
    _print_measurements("also measured", report.get("extras", {}))
    for title in ("facts", "counts"):
        if report.get(title):
            print(f"  {title}: " + json.dumps(report[title], sort_keys=True))
    print(f"  attempted={report['attempted']} failed={report['failed']}")


def result_line(report: Dict[str, object], names: List[str]) -> str:
    """The contract's last line: exactly the declared metrics, value + unit."""
    metrics = report["metrics"]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise SystemExit(f"e21: metrics not measured: {missing}")
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    })


def run_one(workload_name: str, seed: int, seconds: float, trace: bool,
            rows: int = ROWS) -> Dict[str, object]:
    """Run one workload (or its traced ladder) in this process.

    ``rows`` is the table size; only the smoke test shrinks it.
    """
    from e21_workloads import WORKLOADS_BY_NAME, run_workload

    common.refuse_instrumented_environment()
    workload = WORKLOADS_BY_NAME[workload_name]
    scale = seconds / REFERENCE_SECONDS
    dataset = common.make_dataset(seed, rows)
    scratch = common.fresh_scratch(workload_name)
    try:
        if trace:
            from e21_ladder import run_ladder

            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
            report = run_ladder(workload, dataset, seed, scale, scratch, span_file)
        else:
            report = run_workload(workload, dataset, seed, scale, scratch)
    finally:
        common.remove_scratch(scratch)
    document = report.as_json()
    document["trace"] = int(trace)
    document["provenance"] = common.provenance(seed, rows, seconds)
    return document


# -- every workload, one subprocess each ---------------------------------------------------


def run_set(seed: int, seconds: float, trace: bool, label: str) -> Dict[str, Dict]:
    """All five workloads, each in a fresh subprocess; returns their reports."""
    OUT_DIR.mkdir(exist_ok=True)
    reports: Dict[str, Dict] = {}
    for workload in load_contract()["workloads"]:
        name = workload["name"]
        report_path = OUT_DIR / f"report-{label}-{name}-trace{int(trace)}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--report", str(report_path),
        ]
        started = time.perf_counter()
        completed = subprocess.run(command, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        sys.stderr.write(completed.stderr)
        if not report_path.exists():
            raise SystemExit(
                f"e21: {name} produced no report (exit {completed.returncode})"
            )
        report = json.loads(report_path.read_text())
        report["exit_code"] = completed.returncode
        report["process_seconds"] = elapsed
        reports[name] = report
        print_report(report)
        print(f"  process: {elapsed:.1f} s, exit {completed.returncode}")
    return reports


def _bounds() -> Dict[str, Dict[str, object]]:
    return {m["name"]: m for m in load_contract()["end_to_end"]}


def median_of_sets(sets: List[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Per workload: each metric's median over repeated sets, and the exact
    counts if every repetition agrees on them (else ``None``)."""
    merged: Dict[str, Dict] = {}
    for workload in sets[0]:
        reports = [reports_of_set[workload] for reports_of_set in sets]
        facts = reports[0]["facts"]
        merged[workload] = {
            "metrics": {
                name: {"value": statistics.median(
                    r["metrics"][name]["value"] for r in reports
                )}
                for name in reports[0]["metrics"]
            },
            "facts": facts if all(r["facts"] == facts for r in reports) else None,
        }
    return merged


def compare_sets(first: Dict[str, Dict], second: Dict[str, Dict]) -> List[str]:
    """Problems that make two sets of the same code disagree."""
    problems = []
    for name, bound in _bounds().items():
        for workload in first:
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            # the same code ran on both sides, so either may be the worse one
            apart = max(a, b) / min(a, b) - 1.0
            verdict = "ok" if apart <= bound["bound"] else "OUT OF BOUND"
            print(f"  {workload:<18} {name:<18} {a:>12.5g} {b:>12.5g} "
                  f"apart by {apart * 100:5.1f} %  "
                  f"bound {bound['bound'] * 100:.0f} %  {verdict}")
            if apart > bound["bound"]:
                problems.append(f"{workload}.{name}: sets apart by {apart * 100:.1f} %")
    for workload in first:
        facts = first[workload]["facts"]
        if facts is None or facts != second[workload]["facts"]:
            problems.append(f"{workload}: exact counts differ between runs of one seed")
    return problems


def selfcheck(seed: int, seconds: float) -> int:
    """Two sets of ``SELFCHECK_REPS`` runs each, alternating which set goes first (the
    recording host changes speed for a minute at a time, and a wave must not
    land on one side only); medians compared like the driver compares a
    change with its parent."""
    sets: Dict[str, List[Dict[str, Dict]]] = {"a": [], "b": []}
    for rep in range(SELFCHECK_REPS):
        for label in ("ab" if rep % 2 == 0 else "ba"):
            sets[label].append(run_set(seed, seconds, trace=False, label=f"{label}{rep}"))
    print(f"== selfcheck: median of {SELFCHECK_REPS} runs, set a vs set b")
    problems = compare_sets(median_of_sets(sets["a"]), median_of_sets(sets["b"]))
    print(f"== second seed ({seed + 1}), report only")
    other = run_set(seed + 1, seconds, trace=False, label="c")
    failed = [
        f"{name}: exit {r['exit_code']}"
        for reports in sets["a"] + sets["b"] + [other]
        for name, r in reports.items() if r["exit_code"] != 0
    ]
    for problem in problems + failed:
        print(f"SELFCHECK PROBLEM: {problem}")
    print("selfcheck " + ("FAILED" if problems or failed else "passed"))
    return 1 if problems or failed else 0


# -- command line ------------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="measured seconds the op counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path,
                        help="also write the full report as JSON here")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh subprocess")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets compared against the stored bounds")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    common.refuse_instrumented_environment()
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.all:
        reports = run_set(args.seed, args.seconds, bool(args.trace), label="all")
        return 1 if any(r["exit_code"] != 0 for r in reports.values()) else 0
    if not args.workload:
        raise SystemExit("e21: give --workload NAME, --all or --selfcheck")
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    if args.workload not in known:
        raise SystemExit(f"e21: unknown workload {args.workload!r}; known: {known}")
    # before the first large allocation, and only in a process of the benchmark's own
    common.recycle_freed_memory()
    report = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.report:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=1, sort_keys=True))
    print_report(report)
    section = "per_layer" if args.trace else "end_to_end"
    print(result_line(report, [m["name"] for m in contract[section]]))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
