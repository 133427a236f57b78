"""The finding contract of the static analyzer, and its driver.

A finding carries ``file:line``, a rule id, the enclosing symbol and a fix
hint.  It is silenced only by an inline ``# <tool>: ignore[RULE, ...]
<reason>`` comment on its own line, and that comment is itself a finding
when it carries no reason or silences nothing on its line, so suppressions
stay explained and only shrink.

This module holds that contract once: the :class:`Finding` record and the
:class:`Reporter` that files one, the AST helpers the rules use and the
driver (:func:`analyze_modules`: discover files → parse (``XX000`` on a
syntax error) → rules → inline suppressions → sort).  The rules, the
report and the CLI are :mod:`repro.analysis_tools.reprolint`'s.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Finding:
    """One analyzer finding."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str
    hint: str = ""
    attribute: str = ""
    suppressed_by: str = ""  # "" or "inline"

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

    ``threading.Lock()`` -> ``"Lock"``, ``@guarded_by(x="l")`` -> ``"guarded_by"``,
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
    own_rule: str,
    check: Callable[[List[Tuple[str, ast.Module]], List[Finding]], None],
) -> List[Finding]:
    """Parse every file under ``paths`` and run ``check`` over the modules.

    ``check(modules, findings)`` gets every parsed ``(path, tree)`` at once
    (rules that resolve names across files need them all) and appends to
    ``findings``.  ``own_rule`` is the analyzer's own contract: a file that
    does not parse, and an inline ignore that carries no reason or silences
    nothing.  Inline ignores are applied and the findings sorted before
    they are returned.
    """
    findings: List[Finding] = []
    modules: List[Tuple[str, ast.Module]] = []
    ignores: Dict[str, Dict[int, Tuple[List[str], str]]] = {}
    for file_path in iter_python_files(paths):
        path, source = str(file_path), file_path.read_text()
        try:
            modules.append((path, ast.parse(source, filename=path)))
        except SyntaxError as error:
            findings.append(Finding(
                rule=own_rule, path=path, line=error.lineno or 0,
                symbol="<module>", message=f"syntax error: {error.msg}",
            ))
            continue
        ignores[path] = inline_ignores(source, tool)
    check(modules, findings)
    apply_inline_suppressions(findings, ignores, own_rule)
    findings.sort(key=Finding.key)
    return findings


def inline_ignores(source: str, tool: str) -> Dict[int, Tuple[List[str], str]]:
    """line -> (rules, reason) of every ``# <tool>: ignore[RULE, ...] reason``
    comment in ``source`` (comments only: a docstring quoting one is text)."""
    marker = re.compile(rf"#\s*{tool}:\s*ignore(?:\[([^\]]*)\])?(.*)")
    ignores: Dict[int, Tuple[List[str], str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = marker.search(token.string) if token.type == tokenize.COMMENT else None
        if match:
            rules = [rule.strip() for rule in (match.group(1) or "").split(",")]
            ignores[token.start[0]] = ([r for r in rules if r], match.group(2).strip())
    return ignores


def apply_inline_suppressions(
    findings: List[Finding],
    ignores: Dict[str, Dict[int, Tuple[List[str], str]]],
    own_rule: str,
) -> None:
    """Silence each finding an ignore on its line names; file every ignore
    without a reason, and every one that silences nothing, as ``own_rule``."""
    used = set()
    for finding in findings:
        rules, _reason = ignores.get(finding.path, {}).get(finding.line, ((), ""))
        if finding.rule in rules:
            finding.suppressed_by = "inline"
            used.add((finding.path, finding.line))
    for path, by_line in ignores.items():
        for line, (rules, reason) in by_line.items():
            named = f"ignore[{', '.join(rules)}]"
            if not reason:
                findings.append(Finding(
                    rule=own_rule, path=path, line=line, symbol="<ignore>",
                    message=f"inline {named} carries no reason",
                    hint="say after the closing bracket why the finding is safe",
                ))
            if (path, line) not in used:
                findings.append(Finding(
                    rule=own_rule, path=path, line=line, symbol="<ignore>",
                    message=f"inline {named} silences no finding on its line",
                    hint="delete the stale ignore",
                ))
