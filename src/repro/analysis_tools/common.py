"""Shared machinery of the repro static analyzers.

``reprolint`` (concurrency invariants) and ``reproperf`` (the kernels: hot
paths, the cost model and the typed-buffer contract) follow the same
operating contract — findings carry ``file:line``, a rule id, the enclosing
symbol and a fix hint; suppressions are either inline
(``# <tool>: ignore[RULE, ...]``) or entries of a checked-in TOML baseline
whose every entry must carry a ``reason``; ``--strict-baseline`` fails on
entries no finding matches any more (so baselines only shrink); output is
text or JSON; exit status is 0 clean / 1 findings / 2 usage errors.

This module holds that contract once: the :class:`Finding` record and the
:class:`Reporter` that files one, the AST helpers every rule module uses,
the driver (:func:`analyze_modules`: discover files → parse → ``XX000``
syntax finding → rules → inline suppressions → sort), baseline application
(:func:`run_analyzer`), the report rendering and the per-tool CLI
(:func:`run_cli`).  An analyzer module is its rules plus an
:class:`Analyzer` record naming them; ``python -m repro lint`` runs both
records through the same functions.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.guards import CHARGE_CHANNELS

try:  # Python >= 3.11; the container and CI both satisfy this
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - pre-3.11 fallback
    tomllib = None

#: the kernel modules the cost model and the typed-buffer contract live in
#: (relative to the repo root): the default scope of reproperf
KERNEL_TARGETS = (
    "src/repro/columnstore/bulk.py",
    "src/repro/core/cracking",
    "src/repro/core/merging",
    "src/repro/core/hybrids",
    "src/repro/core/partitioned.py",
)

#: record method -> channel (inverse of guards.CHARGE_CHANNELS)
RECORD_METHODS: Dict[str, str] = {
    method: channel
    for channel, methods in CHARGE_CHANNELS.items()
    for method in methods
}


@dataclass
class Finding:
    """One analyzer finding, shared by every repro analyzer."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str
    hint: str = ""
    attribute: str = ""
    suppressed_by: str = ""  # "", "baseline" or "inline"

    def key(self) -> Tuple[str, str, int, str]:
        return (self.rule, self.path, self.line, self.attribute)

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class Reporter:
    """What every rule visitor shares: a file, a symbol, a findings list."""

    path: str
    findings: List[Finding]
    symbol: str

    def _report(self, rule: str, node: ast.AST, message: str, hint: str = "",
                attribute: str = "") -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                symbol=self.symbol,
                message=message,
                hint=hint,
                attribute=attribute,
            )
        )


# -- AST helpers -----------------------------------------------------------------


def expr_text(node: ast.expr) -> str:
    """The source text of ``node`` (for messages and owner matching)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all our inputs
        return ast.dump(node)


def simple_name(node: ast.expr) -> str:
    """The last identifier of a name, an attribute chain or a call's target.

    ``threading.Lock()`` -> ``"Lock"``, ``@charges("x")`` -> ``"charges"``,
    ``database._table_gates`` -> ``"_table_gates"``; ``""`` for anything else.
    """
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def decorator_call(node: ast.AST, name: str) -> Optional[ast.Call]:
    """The ``@name(...)`` decorator call on a def or class, or None."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) and simple_name(decorator) == name:
            return decorator
    return None


def iter_stop_at_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class scopes.

    Scope-boundary children (nested defs, lambdas, classes) are yielded —
    so rules can flag the boundary itself — but not entered.
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        if current is not node and isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def python_level_names(tree: ast.Module) -> Set[str]:
    """Names in ``tree`` that resolve to Python-level code: module-level
    defs plus anything imported from the repro package itself."""
    names: Set[str] = set()
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(statement.name)
        elif isinstance(statement, ast.ImportFrom):
            module = statement.module or ""
            if statement.level > 0 or module.split(".")[0] == "repro":
                for alias in statement.names:
                    names.add(alias.asname or alias.name)
    return names


# -- the driver ------------------------------------------------------------------


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``*.py`` file under ``paths`` (directories recursed, sorted)."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
    return files


def analyze_modules(
    paths: Sequence[str],
    tool: str,
    syntax_rule: str,
    check: Callable[[List[Tuple[str, ast.Module]], List[Finding]], None],
) -> List[Finding]:
    """Parse every file under ``paths`` and run ``check`` over the modules.

    ``check(modules, findings)`` gets every parsed ``(path, tree)`` at once
    (rules that resolve names across files need them all) and appends to
    ``findings``.  A file that does not parse becomes a ``syntax_rule``
    finding; inline ``# <tool>: ignore[...]`` markers are applied and the
    findings sorted before they are returned.
    """
    findings: List[Finding] = []
    modules: List[Tuple[str, ast.Module]] = []
    sources: Dict[str, List[str]] = {}
    for file_path in iter_python_files(paths):
        path, source = str(file_path), file_path.read_text()
        try:
            modules.append((path, ast.parse(source, filename=path)))
        except SyntaxError as error:
            findings.append(Finding(
                rule=syntax_rule, path=path, line=error.lineno or 0,
                symbol="<module>", message=f"syntax error: {error.msg}",
            ))
            continue
        sources[path] = source.splitlines()
    check(modules, findings)
    apply_inline_suppressions(findings, sources, tool)
    findings.sort(key=Finding.key)
    return findings


def apply_inline_suppressions(
    findings: List[Finding], sources: Dict[str, List[str]], tool: str
) -> None:
    """Mark findings silenced by ``# <tool>: ignore[...]`` on their line."""
    marker_text = f"# {tool}: ignore"
    for finding in findings:
        lines = sources.get(finding.path, ())
        if 1 <= finding.line <= len(lines):
            text = lines[finding.line - 1]
            marker = text.rfind(marker_text)
            if marker == -1:
                continue
            tail = text[marker + len(marker_text):].strip()
            if not tail or finding.rule in tail:
                finding.suppressed_by = "inline"


def load_baseline(path: Path) -> List[Dict[str, str]]:
    """Parse the TOML baseline; every suppression must carry a reason."""
    if tomllib is None:  # pragma: no cover - pre-3.11 fallback
        raise RuntimeError("tomllib unavailable; cannot read the baseline")
    data = tomllib.loads(path.read_text())
    entries = data.get("suppress", [])
    for entry in entries:
        if not entry.get("rule") or not entry.get("path"):
            raise ValueError(f"baseline entry needs rule and path: {entry}")
        if not str(entry.get("reason", "")).strip():
            raise ValueError(
                f"baseline entry for {entry.get('path')} needs a non-empty "
                f"reason — suppressions must be explicit and commented"
            )
    return entries


def apply_baseline(findings: List[Finding], entries: List[Dict[str, str]]) -> List[str]:
    """Mark baselined findings; returns messages for unused entries.

    An entry's path matches a finding's when it equals the finding's path or
    ends it right after a ``/`` — ``pf001_bad.py`` covers
    ``fixtures/pf001_bad.py``, not ``xpf001_bad.py``.
    """
    used = [False] * len(entries)
    for finding in findings:
        if finding.suppressed_by:
            continue
        normalized = "/" + finding.path.replace("\\", "/")
        for position, entry in enumerate(entries):
            if entry["rule"] != finding.rule:
                continue
            if not normalized.endswith("/" + entry["path"].replace("\\", "/")):
                continue
            if entry.get("symbol") and entry["symbol"] != finding.symbol:
                continue
            if entry.get("attribute") and entry["attribute"] != finding.attribute:
                continue
            finding.suppressed_by = "baseline"
            used[position] = True
            break
    return [
        f"unused baseline entry: {entry['rule']} {entry['path']} "
        f"{entry.get('symbol', '')}".rstrip()
        for entry, was_used in zip(entries, used)
        if not was_used
    ]


# -- running an analyzer ----------------------------------------------------------


@dataclass(frozen=True)
class Analyzer:
    """One analyzer as the drivers see it: its name, scope and rules.

    ``analyze(paths)`` returns ``(findings, aux)``; ``extra_payload(aux)``
    contributes the analyzer-specific JSON section; ``summary(aux)`` is the
    analyzer-specific tail of the text summary line.  The baseline is
    ``./<tool>.toml`` unless the per-tool CLI is told otherwise.
    """

    tool: str
    description: str
    default_paths: Tuple[str, ...]
    analyze: Callable[[Sequence[str]], Tuple[List[Finding], object]]
    extra_payload: Callable[[object], Dict[str, object]]
    summary: Callable[[object], str]


class UsageError(Exception):
    """A path or baseline the caller named cannot be used (exit status 2)."""


@dataclass
class Report:
    """The outcome of one analyzer run, baseline applied."""

    analyzer: Analyzer
    findings: List[Finding]
    unused_baseline: List[str]
    aux: object

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed_by]

    def status(self, strict_baseline: bool) -> int:
        """1 on active findings (or, when strict, stale baseline entries)."""
        return int(bool(self.active or (strict_baseline and self.unused_baseline)))

    def payload(self) -> Dict[str, object]:
        """The JSON report: findings, the analyzer's section, a summary."""
        payload: Dict[str, object] = {
            "findings": [asdict(finding) for finding in self.findings],
        }
        payload.update(self.analyzer.extra_payload(self.aux))
        payload["summary"] = {
            "total": len(self.findings),
            "active": len(self.active),
            "suppressed": len(self.findings) - len(self.active),
            "unused_baseline_entries": self.unused_baseline,
        }
        return payload

    def print_text(self, strict_baseline: bool) -> None:
        """Active findings on stdout; baseline notes and the summary on stderr."""
        for finding in self.active:
            print(finding.render())
        for message in self.unused_baseline:
            prefix = "error" if strict_baseline else "warning"
            print(f"{prefix}: {message}", file=sys.stderr)
        print(
            f"{self.analyzer.tool}: {len(self.active)} finding(s) "
            f"({len(self.findings) - len(self.active)} suppressed, "
            f"{self.analyzer.summary(self.aux)})",
            file=sys.stderr,
        )


def run_analyzer(
    analyzer: Analyzer,
    paths: Sequence[str] = (),
    baseline: Optional[str] = None,
    no_baseline: bool = False,
) -> Report:
    """Analyze ``paths`` (default: the analyzer's own scope), apply the baseline."""
    try:
        findings, aux = analyzer.analyze(list(paths) or list(analyzer.default_paths))
    except FileNotFoundError as error:
        raise UsageError(str(error)) from None
    unused_baseline: List[str] = []
    if not no_baseline:
        baseline_path = Path(baseline or f"{analyzer.tool}.toml")
        if baseline and not baseline_path.exists():
            raise UsageError(f"no baseline at {baseline_path}")
        if baseline_path.exists():
            try:
                entries = load_baseline(baseline_path)
            except ValueError as error:
                raise UsageError(f"bad baseline: {error}") from None
            unused_baseline = apply_baseline(findings, entries)
    return Report(analyzer, findings, unused_baseline, aux)


def add_arguments(parser: argparse.ArgumentParser, default_scope: str) -> None:
    """The options every entry point takes (per-tool mains and ``repro lint``)."""
    parser.add_argument(
        "paths", nargs="*",
        help=f"files or directories to analyze (default: {default_scope})",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="finding output format",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    parser.add_argument(
        "--strict-baseline", action="store_true",
        help="fail (exit 1) when a baseline contains entries no finding "
             "matches (stale suppressions)",
    )


def run_cli(analyzer: Analyzer, argv: Optional[Sequence[str]] = None) -> int:
    """The per-tool CLI (``python -m repro.analysis_tools.<tool>``)."""
    parser = argparse.ArgumentParser(
        prog=analyzer.tool, description=analyzer.description
    )
    add_arguments(parser, " ".join(analyzer.default_paths))
    parser.add_argument(
        "--baseline", default=None, metavar="TOML",
        help=f"suppression baseline (default: ./{analyzer.tool}.toml when present)",
    )
    args = parser.parse_args(argv)
    try:
        report = run_analyzer(analyzer, args.paths, args.baseline, args.no_baseline)
    except UsageError as error:
        print(f"{analyzer.tool}: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.payload(), indent=2))
    else:
        report.print_text(args.strict_baseline)
    return report.status(args.strict_baseline)
