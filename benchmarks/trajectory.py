"""The e21 trajectory: recorded numbers beside the benchmark, and A/B pairs.

``benchmarks/e21_layers/run.py --workload W --seed S --report PATH`` already
writes one run's full JSON report (metrics, extras with every ``raw.*``
value, exact facts and counts, provenance).  This driver runs it in fresh
processes and keeps what the runs say; it edits nothing under
``benchmarks/e21_layers/``.

    python3 benchmarks/trajectory.py record --pairs 5 --seeds 21,99
    python3 benchmarks/trajectory.py check
    python3 benchmarks/trajectory.py ab HEAD~1 --workload durable_dml --pairs 10

* ``record`` runs every workload ``--pairs`` times per seed and appends one
  entry to ``BENCH_e21_layers.json`` at the repository root: per workload
  and seed the exact ``facts``/``counts`` (it refuses to record when runs
  disagree on them), the median and quartiles of every ``BENCHMARK.json``
  end-to-end metric, host-adjusted and raw, and a host stamp.  From a
  checkout with uncommitted changes the entry's ``git_commit`` is the
  parent commit plus a digest of those changes.
* ``check`` runs each recorded workload and seed as many times as the last
  entry recorded, compares every run's ``facts``/``counts`` bit for bit
  with the entry and prints the median of every metric against the
  recorded quartiles.  It fails on an exact-count difference and, on the
  recording host only, on a median worse than the recorded median by more
  than ``BENCHMARK.json``'s bound.
* ``ab REV`` exports REV with ``git archive`` into a scratch directory
  (a worktree would register itself in the repository's metadata), copies
  this checkout's files as they stand beside it, and alternates
  ``--pairs`` fresh-process runs of the two.
  Per metric it prints both medians, REV's interquartile range and how
  many pairs this checkout won, adjusted and raw side by side, and the
  ``facts``/``counts`` differences.  A gain holds when this checkout wins
  at least nine pairs in ten and its median is better by more than REV's
  interquartile range.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_FILE = REPO_ROOT / "BENCH_e21_layers.json"
RUNNER = Path("benchmarks") / "e21_layers" / "run.py"
#: provenance fields that describe the host, not the run
HOST_FIELDS = ("cpu", "nproc", "python", "numpy", "scratch_fs")
#: the share of pairs a change must win for a claimed gain
WIN_SHARE = 0.9

Report = Dict[str, object]
Runner = Callable[[Path, str, int, Path], Report]


class Disagreement(RuntimeError):
    """Runs of one workload and seed that disagree on an exact count."""


def load_contract(checkout: Path = REPO_ROOT) -> Dict[str, object]:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_report(checkout: Path, workload: str, seed: int, report_path: Path) -> Report:
    """One e21 run of ``checkout`` in a fresh process, at the benchmark's own
    run length; its JSON report."""
    command = [sys.executable, str(checkout / RUNNER), "--workload", workload,
               "--seed", str(seed), "--report", str(report_path)]
    report_path.unlink(missing_ok=True)
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if completed.returncode != 0 or not report_path.exists():
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
        raise SystemExit(f"trajectory: {workload} seed {seed} in {checkout} "
                         f"failed (exit {completed.returncode})")
    return json.loads(report_path.read_text())


# -- what a report says -----------------------------------------------------------


def metric_views(report: Report, name: str) -> Dict[str, float]:
    """One metric of one report, host-adjusted and raw.  A metric reported
    raw (``setup_s``) keeps its adjusted value at ``adjusted.<name>``, the
    others their raw value at ``raw.<name>``; one with neither (a peak
    RSS) is the same number in both views."""
    value = report["metrics"][name]["value"]
    extras = report.get("extras", {})
    adjusted = extras.get(f"adjusted.{name}", {}).get("value", value)
    raw = extras.get(f"raw.{name}", {}).get("value", value)
    return {"adjusted": adjusted, "raw": raw}


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method: a single sample is all three)."""
    samples = sorted(samples)
    if len(samples) == 1:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def exact_counts(reports: Sequence[Report]) -> Dict[str, Dict[str, object]]:
    """The ``facts``/``counts`` every report agrees on, or raise naming each
    key on which some run differs from the first."""
    first = reports[0]
    differing = [
        f"{section}.{key}"
        for report in reports[1:]
        for section in ("facts", "counts")
        for key in sorted(set(first[section]) | set(report[section]))
        if first[section].get(key) != report[section].get(key)
    ]
    if differing:
        raise Disagreement(
            f"{first['workload']}: runs disagree on {sorted(set(differing))}")
    return {"facts": first["facts"], "counts": first["counts"]}


def aggregate(reports: Sequence[Report], metrics: Sequence[str]) -> Dict[str, object]:
    """One recorded cell: the exact counts and each metric's quartiles."""
    entry = exact_counts(reports)
    entry["metrics"] = {
        name: {
            "unit": reports[0]["metrics"][name]["unit"],
            **{view: quartiles([metric_views(r, name)[view] for r in reports])
               for view in ("adjusted", "raw")},
        }
        for name in metrics
    }
    return entry


def host_stamp(report: Report) -> Dict[str, object]:
    provenance = report["provenance"]
    return {field: provenance.get(field) for field in HOST_FIELDS}


def exact_differences(recorded: Dict[str, object], report: Report) -> List[str]:
    """Every fact or count whose value differs from the recorded one."""
    return [
        f"{section}.{key}: recorded {recorded[section].get(key)!r}, "
        f"measured {report[section].get(key)!r}"
        for section in ("facts", "counts")
        for key in sorted(set(recorded[section]) | set(report[section]))
        if recorded[section].get(key) != report[section].get(key)
    ]


def worse_by(value: float, reference: float, better: str) -> float:
    """How much worse ``value`` is than ``reference`` (a fraction; negative
    when it is better)."""
    if better == "lower":
        return value / reference - 1.0
    return reference / value - 1.0


def compare_pairs(base: Sequence[Report], head: Sequence[Report],
                  metric: Dict[str, object], view: str) -> Dict[str, object]:
    """REV's runs against this checkout's, pair by pair, for one metric."""
    name, better = metric["name"], metric["better"]
    base_values = [metric_views(r, name)[view] for r in base]
    head_values = [metric_views(r, name)[view] for r in head]
    wins = sum(
        (h < b) if better == "lower" else (h > b)
        for b, h in zip(base_values, head_values)
    )
    base_q, head_q = quartiles(base_values), quartiles(head_values)
    gap = base_q["median"] - head_q["median"]
    if better != "lower":
        gap = -gap
    iqr = base_q["q3"] - base_q["q1"]
    pairs = len(base_values)
    return {
        "metric": name, "view": view, "pairs": pairs, "wins": wins,
        "base_median": base_q["median"], "head_median": head_q["median"],
        "base_iqr": iqr,
        "change": -worse_by(head_q["median"], base_q["median"], better),
        "gain": wins >= math.ceil(WIN_SHARE * pairs) and gap > iqr,
    }


# -- the three subcommands ----------------------------------------------------------


def record(seeds: Sequence[int], pairs: int, workloads: Sequence[str],
           run: Runner, scratch: Path, checkout: Path = REPO_ROOT) -> Dict[str, object]:
    """One trajectory entry: every workload ``pairs`` times per seed."""
    metrics = [m["name"] for m in load_contract(checkout)["end_to_end"]]
    cells: Dict[str, Dict[str, object]] = {}
    host = None
    for workload in workloads:
        for seed in seeds:
            reports = [
                run(checkout, workload, seed, scratch / f"{workload}-{seed}-{index}.json")
                for index in range(pairs)
            ]
            host = host or host_stamp(reports[0])
            cells.setdefault(workload, {})[str(seed)] = aggregate(reports, metrics)
    return {
        "git_commit": reports[0]["provenance"].get("git_commit", "unknown"),
        "recorded": datetime.date.today().isoformat(),
        "host": host,
        "runs": pairs,
        "workloads": cells,
    }


def append_entry(entry: Dict[str, object], path: Path = RECORD_FILE) -> None:
    document = json.loads(path.read_text()) if path.exists() else {
        "benchmark": "e21_layers", "entries": []}
    document["entries"].append(entry)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def check(entry: Dict[str, object], run: Runner, scratch: Path,
          checkout: Path = REPO_ROOT) -> List[str]:
    """Run each recorded workload and seed as many times as the entry did
    and hold the runs' median to the recorded one; the problems found."""
    bounds = {m["name"]: m for m in load_contract(checkout)["end_to_end"]}
    runs = entry.get("runs", 1)
    problems: List[str] = []
    for workload, by_seed in sorted(entry["workloads"].items()):
        for seed, recorded in sorted(by_seed.items()):
            reports = [run(checkout, workload, int(seed),
                           scratch / f"check-{workload}-{seed}-{index}.json")
                       for index in range(runs)]
            print(f"== {workload} seed {seed} ({runs} runs)")
            problems += list(dict.fromkeys(
                f"{workload} seed {seed}: {difference}"
                for report in reports for difference in exact_differences(recorded, report)))
            same_host = host_stamp(reports[0]) == entry["host"]
            for name, cell in recorded["metrics"].items():
                value = quartiles([metric_views(r, name)["adjusted"] for r in reports])["median"]
                quart = cell["adjusted"]
                worse = worse_by(value, quart["median"], bounds[name]["better"])
                outside = worse > bounds[name]["bound"]
                print(f"  {name:<18} {value:>12.5g}  recorded {quart['q1']:.5g} "
                      f"[{quart['median']:.5g}] {quart['q3']:.5g}  "
                      f"{'OUTSIDE BOUND' if outside else 'ok'}")
                if outside and same_host:
                    problems.append(f"{workload} seed {seed}: {name} worse than the "
                                    f"recorded median by {worse * 100:.1f} %")
    return problems


def stamp_tree(commit: str, checkout: Path = REPO_ROOT) -> str:
    """``commit`` for a clean checkout; for one with uncommitted changes,
    ``commit`` plus ``+`` and a short digest of ``git diff HEAD`` and of the
    new files git does not ignore."""
    def git(*arguments: str) -> bytes:
        return subprocess.run(["git", *arguments], cwd=checkout,
                              capture_output=True, check=True).stdout

    diff = git("diff", "HEAD", "--binary")
    new_files = list(filter(None, git("ls-files", "-z", "--others",
                                      "--exclude-standard").split(b"\0")))
    if not diff and not new_files:
        return commit
    digest = hashlib.sha256(diff)
    for name in new_files:
        digest.update(name + b"\0" + (checkout / name.decode()).read_bytes())
    return f"{commit}+{digest.hexdigest()[:12]}"


def export_revision(revision: str, destination: Path) -> Path:
    """REV's committed files under ``destination`` (``git archive``)."""
    shutil.rmtree(destination, ignore_errors=True)
    destination.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", revision], cwd=REPO_ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(destination)], input=archive, check=True)
    return destination


def export_checkout(destination: Path) -> Path:
    """This checkout's files as they stand under ``destination``: the
    tracked ones with their edits and the new ones git does not ignore.
    ``ab`` runs both sides from such plain directories, since the same
    files run inside a git repository read 0.8-1.5 MB more ``peak_rss_mb``
    on ``explore_crack`` than exported (three runs each)."""
    shutil.rmtree(destination, ignore_errors=True)
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO_ROOT, capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = REPO_ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is not
            (destination / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination / name)
    return destination


def ab(base_checkout: Path, workloads: Sequence[str], seed: int, pairs: int,
       run: Runner, scratch: Path, checkout: Path = REPO_ROOT) -> Dict[str, object]:
    """Alternating fresh-process pairs of REV and this checkout (REV first
    in even pairs, second in odd ones, so a slow minute hits both)."""
    contract = load_contract(checkout)
    result: Dict[str, object] = {}
    for workload in workloads:
        sides: Dict[str, List[Report]] = {"base": [], "head": []}
        for index in range(pairs):
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            for side in order:
                where = base_checkout if side == "base" else checkout
                sides[side].append(run(where, workload, seed,
                                       scratch / f"ab-{side}-{workload}-{index}.json"))
        exact_counts(sides["head"])  # this checkout's runs must agree too
        result[workload] = {
            "rows": [compare_pairs(sides["base"], sides["head"], metric, view)
                     for metric in contract["end_to_end"]
                     for view in ("adjusted", "raw")],
            "exact": exact_differences(exact_counts(sides["base"]), sides["head"][0]),
        }
    return result


def print_ab(result: Dict[str, object], seed: int) -> None:
    for workload, outcome in result.items():
        print(f"== {workload} seed {seed}")
        print(f"  {'metric':<18} {'view':<8} {'REV':>11} {'this':>11} {'change':>8} "
              f"{'REV IQR':>10} {'wins':>6}")
        for row in outcome["rows"]:
            print(f"  {row['metric']:<18} {row['view']:<8} {row['base_median']:>11.5g} "
                  f"{row['head_median']:>11.5g} {row['change'] * 100:>+7.1f}% "
                  f"{row['base_iqr']:>10.3g} {row['wins']:>3}/{row['pairs']:<2}"
                  f"{'  gain' if row['gain'] else ''}")
        differences = outcome["exact"]
        print("  facts/counts: " + ("identical" if not differences
                                    else "; ".join(differences)))


# -- command line -----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("record", "check", "ab"):
        command = commands.add_parser(name)
        command.add_argument("--workload", action="append",
                             help="one workload (repeatable); default: every one")
        command.add_argument("--scratch", type=Path,
                             help="directory for reports and REV's export")
        if name == "ab":
            command.add_argument("revision")
            command.add_argument("--seed", type=int, default=21)
        if name != "check":
            command.add_argument("--pairs", type=int, default=10 if name == "ab" else 5)
        if name == "record":
            command.add_argument("--seeds", default="21,99")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="trajectory-"))
    scratch.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or [w["name"] for w in load_contract()["workloads"]]

    if args.command == "record":
        seeds = [int(seed) for seed in args.seeds.split(",")]
        try:
            entry = record(seeds, args.pairs, workloads, run_report, scratch)
        except Disagreement as exc:
            print(f"trajectory: refusing to record: {exc}")
            return 1
        stamp = stamp_tree(entry["git_commit"])
        if stamp != entry["git_commit"]:
            print(f"trajectory: the checkout has uncommitted changes; stamped {stamp}")
            entry["git_commit"] = stamp
        append_entry(entry)
        print(f"trajectory: appended an entry for {entry['git_commit']} to {RECORD_FILE}")
        return 0
    if args.command == "check":
        entry = json.loads(RECORD_FILE.read_text())["entries"][-1]
        if args.workload:
            entry["workloads"] = {name: cells for name, cells in entry["workloads"].items()
                                  if name in args.workload}
        problems = check(entry, run_report, scratch)
        for problem in problems:
            print(f"CHECK PROBLEM: {problem}")
        return 1 if problems else 0
    base = export_revision(args.revision, scratch / "rev")
    result = ab(base, workloads, args.seed, args.pairs, run_report, scratch,
                checkout=export_checkout(scratch / "this"))
    print_ab(result, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
