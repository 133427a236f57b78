"""The reachability gate: every function in ``src/repro`` is reached by a
user entry point, or ``benchmarks/reach_allow.json`` names it with a reason.

    python3 benchmarks/reach.py

Each entry point runs in a fresh subprocess whose ``PYTHONPATH`` starts with
a bootstrap directory holding a ``sitecustomize.py``.  The bootstrap sets
``sys.setprofile`` and ``threading.setprofile`` to record every code object
the process calls, and writes their ``(file, first line)`` pairs when the
process exits; a child process inherits it through the environment.  The
entry points are:

* the five e21 workloads at ``--trace 0`` and ``--trace 1``, ``--seconds 2``;
* ``benchmarks/figures.py --check``;
* the kept CLI commands: ``strategies``, ``lint`` in text and in
  ``--format json``, and ``recover``/``snapshot``/``recover`` on a data
  directory that ``repro updates`` seeds outside the probe;
* every script in ``examples/``.

A function is keyed by its path relative to ``src/repro`` and its first
line: the line of its first decorator when it has one, which is the
``co_firstlineno`` of its code object.  The AST lists every ``def``, nested
ones included.  The gate fails on an unreached function the allowlist does
not name, on an allowlist name that no function has any more and on an
entry without a known kind and a reason.  A listed function that some entry
point reached is reported, so the list only shrinks.  Exit status: 0 clean,
1 when the gate fails or an entry point exits non-zero.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"
ALLOW_FILE = Path(__file__).resolve().parent / "reach_allow.json"
#: what may put a function on the allowlist
KINDS = ("oracle", "interface", "untriggered", "item 4(vi)")

Key = Tuple[str, int]

BOOTSTRAP = '''\
"""Reachability probe: record every code object this process calls and
write their (file, first line) pairs to $REACH_DUMPS when it exits."""
import atexit
import json
import os
import sys
import threading
import time

_seen = {}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    pairs = sorted({(code.co_filename, code.co_firstlineno) for code in _seen.values()})
    # a recycled pid must not overwrite an earlier process's dump
    name = "%d-%d.json" % (os.getpid(), time.monotonic_ns())
    path = os.path.join(os.environ["REACH_DUMPS"], name)
    with open(path, "w") as handle:
        json.dump(pairs, handle)


if os.environ.get("REACH_DUMPS"):
    sys.setprofile(_record)
    threading.setprofile(_record)
    atexit.register(_dump)
'''


# -- what is defined ------------------------------------------------------------------


def definitions(root: Path) -> Dict[Key, str]:
    """Every ``def`` under ``root``, nested ones included: (path relative to
    ``root``, first line) -> ``path::Qualified.name``.  A name a file defines
    twice (a property's setter, say) gets ``[2]``, ``[3]``, ... after the
    first in line order."""
    found: Dict[Key, str] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        counts: Counter = Counter()
        for first_line, name in sorted(_defs(ast.parse(path.read_text(), str(path)), "")):
            counts[name] += 1
            suffix = f"[{counts[name]}]" if counts[name] > 1 else ""
            found[(relative, first_line)] = f"{relative}::{name}{suffix}"
    return found


def _defs(node: ast.AST, prefix: str) -> Iterable[Tuple[int, str]]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
            yield first, name
            yield from _defs(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


# -- what is reached ----------------------------------------------------------------


def reached(dumps: Path, root: Path) -> Set[Key]:
    """The (path relative to ``root``, first line) of every code object under
    ``root`` that some probed process called."""
    root = Path(os.path.realpath(root))
    keys: Set[Key] = set()
    resolved: Dict[str, Optional[str]] = {}
    for dump in sorted(dumps.glob("*.json")):
        for filename, first_line in json.loads(dump.read_text()):
            if filename not in resolved:
                path = Path(os.path.realpath(filename))
                resolved[filename] = (path.relative_to(root).as_posix()
                                      if path.is_relative_to(root) else None)
            if resolved[filename] is not None:
                keys.add((resolved[filename], first_line))
    return keys


def write_bootstrap(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "sitecustomize.py").write_text(BOOTSTRAP)
    return directory


def probe_environment(bootstrap: Path, dumps: Path,
                      extra_path: Sequence[Path] = ()) -> Dict[str, str]:
    """The environment of a probed process: the bootstrap first on
    ``PYTHONPATH``, then ``extra_path``, then whatever was there."""
    env = dict(os.environ)
    parts = [str(bootstrap), *map(str, extra_path)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["REACH_DUMPS"] = str(dumps)
    return env


# -- the entry points ---------------------------------------------------------------


def entry_points(data_dir: Path) -> List[List[Tuple[str, List[str]]]]:
    """Groups of (label, argv); a group runs in order, groups in parallel."""
    python = sys.executable
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    e21 = [
        [(f"e21 {w['name']} --trace {trace}",
          [python, "benchmarks/e21_layers/run.py", "--workload", w["name"],
           "--seed", "21", "--seconds", "2", "--trace", str(trace)])]
        for w in contract["workloads"] for trace in (0, 1)
    ]
    cli = [python, "-m", "repro"]
    durable = ["--data-dir", str(data_dir)]
    return e21 + [
        [("figures --check", [python, "benchmarks/figures.py", "--check"])],
        [("repro strategies", cli + ["strategies"]),
         ("repro lint", cli + ["lint"]),
         ("repro lint --format json", cli + ["lint", "--format", "json"]),
         ("repro recover", cli + ["recover"] + durable),
         ("repro snapshot", cli + ["snapshot"] + durable),
         ("repro recover (from the snapshot)", cli + ["recover"] + durable)],
    ] + [
        [(f"examples/{script.name}", [python, f"examples/{script.name}"])]
        for script in sorted((REPO_ROOT / "examples").glob("*.py"))
    ]


def seed_data_directory(data_dir: Path) -> None:
    """A journaled data directory for ``recover``/``snapshot``, written by
    ``repro updates`` in a process the probe does not record."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro", "updates", "--rows", "2000", "--queries", "20",
         "--strategy", "updatable-cracking", "--data-dir", str(data_dir)],
        cwd=REPO_ROOT, env=env, check=True, capture_output=True)


def run_group(group: Sequence[Tuple[str, List[str]]],
              env: Mapping[str, str]) -> Tuple[List[str], bool]:
    """Run one group's commands in order: a line per command, and whether
    every one exited 0."""
    lines, clean = [], True
    for label, argv in group:
        started = time.perf_counter()
        completed = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        status = "ok" if completed.returncode == 0 else f"EXIT {completed.returncode}"
        lines.append(f"  {label:<40} {time.perf_counter() - started:6.1f} s  {status}")
        if completed.returncode != 0:
            clean = False
            lines.append(completed.stdout[-1500:] + completed.stderr[-1500:])
    return lines, clean


def probe(scratch: Path) -> bool:
    """Run every entry point under the bootstrap, two groups at a time,
    dumping into ``scratch/dumps``; True when all exited 0."""
    data_dir = scratch / "state"
    seed_data_directory(data_dir)
    dumps = scratch / "dumps"
    dumps.mkdir()
    env = probe_environment(write_bootstrap(scratch / "boot"), dumps, [REPO_ROOT / "src"])
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(lambda group: run_group(group, env),
                                 entry_points(data_dir)))
    for lines, _ in outcomes:
        print("\n".join(lines))
    return all(clean for _, clean in outcomes)


# -- the gate -----------------------------------------------------------------------


def load_allowlist(path: Path = ALLOW_FILE) -> Dict[str, Dict[str, str]]:
    """name -> {"kind", "reason"}."""
    return {entry["function"]: entry for entry in json.loads(path.read_text())["functions"]}


def gate(defined: Mapping[Key, str], hit: Set[Key],
         allow: Mapping[str, Mapping[str, str]]) -> Dict[str, List[str]]:
    """The gate's verdict: ``failures`` (unreached and unlisted, stale or
    unreasoned entries) and ``now_reached`` (listed, yet reached)."""
    names = set(defined.values())
    reached_names = {name for key, name in defined.items() if key in hit}
    failures = [f"unreached and not listed: {name}"
                for name in sorted(names - reached_names - set(allow))]
    failures += [f"listed but no longer defined: {name}"
                 for name in sorted(set(allow) - names)]
    failures += [f"listed without a known kind and a reason: {name}"
                 for name, entry in sorted(allow.items())
                 if entry.get("kind") not in KINDS or not entry.get("reason", "").strip()]
    now_reached = [f"listed but reached (take it off the list): {name}"
                   for name in sorted(set(allow) & reached_names)]
    return {"failures": failures, "now_reached": now_reached}


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        clean_exit = probe(Path(scratch))
        defined = definitions(SOURCE_ROOT)
        hit = reached(Path(scratch) / "dumps", SOURCE_ROOT)
    allow = load_allowlist()
    verdict = gate(defined, hit, allow)
    for line in verdict["now_reached"] + verdict["failures"]:
        print(line)
    kinds = Counter(entry["kind"] for entry in allow.values())
    print(f"reach: {len(defined)} functions, {len(set(defined) & hit)} reached, "
          f"{len(allow)} listed ({', '.join(f'{k} {kinds[k]}' for k in KINDS)}); "
          f"{time.perf_counter() - started:.0f} s")
    if not clean_exit:
        print("reach: an entry point exited non-zero")
    return 0 if clean_exit and not verdict["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
