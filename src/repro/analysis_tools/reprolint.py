"""reprolint — concurrency-invariant static analysis for the repro engine.

Adaptive indexing makes reads mutate physical state, so the engine lives or
dies by its lock discipline: the **schema lock** is acquired before **table
gates**, before **access-path locks**, before the **WAL-order mutex**,
before **per-object stats locks** (the leaves) — the order
:data:`repro.analysis_tools.guards.LOCK_ORDER` declares.  This analyzer
walks the source tree with nothing but :mod:`ast` and reports violations of
that discipline:

``RL001`` guarded-attribute write outside its declared lock
    An attribute declared via :func:`repro.analysis_tools.guards.guarded_by`
    is assigned, augmented, deleted, subscript-stored or mutated through a
    known mutating method (``append``/``pop``/...) outside a ``with
    <owner>.<lock>`` block naming the declared lock.
``RL002`` lock acquisition violating the documented order
    Acquisition edges are collected from lexical ``with`` nesting (including
    ``ExitStack.enter_context``).  Each nested acquisition must strictly
    increase the declared lock level; stats locks are leaves
    under which nothing may be acquired, and multi-gate / multi-path
    acquisition must go through the sorting helpers
    (``TableGateRegistry.read`` / ``AccessPathLockManager.claimed``), never
    through nested ``with`` blocks.
``RL004`` counter attribute mutated via ``+=`` outside any lock
    In classes that own (or inherit) a lock — the marker that instances are
    shared across threads — bare increments of counter-shaped attributes
    (``*_count``, ``queries_processed``, split/merge/row counters) lose
    updates under concurrent readers.
``RL005`` blocking call while a path lock or table gate is statically held
    ``Future.result()`` / ``.join()`` / gate acquisition inside a ``with
    <path lock>`` block can deadlock against the path-lock protocol.
    Additionally, synchronous file I/O (``open``/``write``/``fsync``/
    ``os.replace``/... and the durability entry points ``append_record``/
    ``write_snapshot``) inside a path-lock *or* gate critical section
    stalls every operation queued on that lock for a disk round-trip —
    allowed only where the write-ahead contract requires it (the journal
    append *is* the commit point), recorded as a reasoned inline ignore.
``RL000`` the analyzer's own contract
    A file that does not parse, and an inline ignore that carries no reason
    or silences no finding on its line.

A finding is silenced only by ``# reprolint: ignore[RL00x] <reason>`` on
its own line; findings, output formats and exit status follow the contract
in :mod:`repro.analysis_tools.common`.  Run ``python -m repro lint [paths]
[--format=text|json]``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.common import (
    Finding,
    Reporter,
    analyze_modules,
    decorator_call,
    expr_text,
    simple_name,
)
from repro.analysis_tools.guards import LOCK_LEVELS, LOCK_ORDER, LOCK_RANK

__all__ = ["RULES", "Finding", "analyze_paths", "report", "main"]


RULES = {
    "RL000": "unparsable file, or an inline ignore with no reason or nothing to silence",
    "RL001": "guarded attribute written outside its declared lock",
    "RL002": "lock acquisition violates the declared lock order",
    "RL004": "counter attribute mutated via += outside any lock",
    "RL005": "blocking or file-I/O call while a path lock or gate is held",
}

#: the declared order as messages spell it, outermost first
_ORDER_TEXT = " → ".join(LOCK_ORDER)

#: ranks of the declared levels the rules single out (lower acquires first)
LEVEL_GATE, LEVEL_PATH, LEVEL_STATS = (
    LOCK_RANK["gate"], LOCK_RANK["path"], LOCK_RANK["stats"]
)

#: how a lock registry at a non-leaf level is entered: level -> method names
_REGISTRY_ENTRIES = {
    "gate": ("read", "write", "write_all"),
    "path": ("locked", "claimed", "lock_for"),
}

#: method names that mutate their receiver (list/dict/set mutators)
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
}

#: attribute-name shapes treated as shared counters by RL004
_COUNTER_SUFFIXES = (
    "_count", "_counts", "_processed", "_executed", "_submitted",
    "_inserted", "_deleted", "_updated", "_splits", "_merges", "_writes",
)
_COUNTER_NAMES = {"visits", "fenced_writes"}

#: blocking attribute-call names for RL005 (path-lock scope only: batches
#: legitimately block on their own futures while holding table gates)
_BLOCKING_CALLS = {"result", "join", "acquire_read", "acquire_write"}

#: file-I/O attribute-call names for RL005, flagged under path locks AND
#: table gates — a synchronous disk write inside either critical section
#: stalls every query/DML queued on it
_BLOCKING_IO_ATTR_CALLS = {
    "write", "flush", "fsync", "fdatasync", "truncate",
    "append_record", "write_snapshot",
}
#: os.<name> calls treated as blocking file I/O
_BLOCKING_IO_OS_CALLS = {
    "replace", "rename", "fsync", "fdatasync", "open", "truncate", "unlink",
}
#: bare-name calls treated as blocking file I/O
_BLOCKING_IO_NAME_CALLS = {"open"}

#: methods where unguarded writes are fine: the object is not shared yet
#: (or is being torn down by its last owner); methods named ``_init_*`` are
#: constructor helpers by convention, invoked before the instance escapes
_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__post_init__"}


@dataclass
class ClassInfo:
    """Statically collected facts about one class definition."""

    name: str
    bases: List[str] = field(default_factory=list)
    #: attribute → lock attribute, from the @guarded_by decorator
    guards: Dict[str, str] = field(default_factory=dict)
    #: lock attributes created in the class body (self._x = threading.Lock())
    own_locks: Set[str] = field(default_factory=set)


def _attr_chain_root(node: ast.expr) -> Tuple[Optional[ast.expr], List[str]]:
    """Decompose ``a.b.c`` into (root expression ``a``, ["b", "c"])."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    chain.reverse()
    return node, chain


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _looks_like_lock_name(name: str) -> bool:
    lowered = name.lower()
    return (
        "lock" in lowered
        or "mutex" in lowered
        or lowered.endswith("_guard")
        or lowered.endswith("_condition")
        or lowered == "_condition"
    )


def classify_lock_expr(expr: ast.expr) -> Optional[Tuple[int, str, str]]:
    """Classify a ``with``-item as a lock acquisition.

    Returns ``(level, token, base_text)`` or None.  The level is read from
    the declared order (:data:`~repro.analysis_tools.guards.LOCK_LEVELS`;
    any other lock-named attribute is a stats leaf).  ``token`` identifies
    the lock class in the static acquisition graph; ``base_text`` is the
    source of the owner expression (used to match guarded writes to the
    lock of the *same* object).
    """
    # a declared registry entered through one of its helpers:
    # <owner>._table_gates.read(...) / <owner>._path_locks.lock_for(...)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        method = expr.func.attr
        owner = expr.func.value
        level = LOCK_LEVELS.get(simple_name(owner), "")
        if method in _REGISTRY_ENTRIES.get(level, ()):
            token = "path" if level == "path" else f"{level}.{method}"
            return (LOCK_RANK[level], token, expr_text(owner))
    # a bare lock: a declared mutex, or any other lock-named attribute (a leaf)
    if isinstance(expr, ast.Attribute):
        name, base = expr.attr, expr_text(expr.value)
    elif isinstance(expr, ast.Name):
        name, base = expr.id, ""
    else:
        return None
    level = LOCK_LEVELS.get(name) or ("stats" if _looks_like_lock_name(name) else "")
    if not level or level in _REGISTRY_ENTRIES:
        return None
    return (LOCK_RANK[level], f"{level}.{name}", base)


def _is_counter_name(name: str) -> bool:
    return name in _COUNTER_NAMES or name.endswith(_COUNTER_SUFFIXES)


def _is_lock_factory(value: ast.expr) -> bool:
    """True for ``threading.Lock()`` / ``RLock()`` / ``Condition()`` calls."""
    return isinstance(value, ast.Call) and simple_name(value) in (
        "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"
    )


class _ClassIndexer(ast.NodeVisitor):
    """First pass: collect every class, its guards, locks and declarations."""

    def __init__(self) -> None:
        self.classes: List[ClassInfo] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name)
        for base in node.bases:
            _, chain = _attr_chain_root(base)
            if chain:
                info.bases.append(chain[-1])
            elif isinstance(base, ast.Name):
                info.bases.append(base.id)
        guarded_by = decorator_call(node, "guarded_by")
        for keyword in guarded_by.keywords if guarded_by is not None else ():
            if keyword.arg and isinstance(
                keyword.value, ast.Constant
            ) and isinstance(keyword.value.value, str):
                info.guards[keyword.arg] = keyword.value.value
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and _is_lock_factory(sub.value):
                for target in sub.targets:
                    root, chain = _attr_chain_root(target)
                    if _is_self(root) and len(chain) == 1:
                        info.own_locks.add(chain[0])
        self.classes.append(info)
        self.generic_visit(node)


class ClassRegistry:
    """Cross-module class index with inheritance resolution by simple name."""

    def __init__(self) -> None:
        self.by_name: Dict[str, ClassInfo] = {}

    def add(self, info: ClassInfo) -> None:
        # last definition wins; simple names are unique in this tree
        self.by_name[info.name] = info

    def _ancestors(self, name: str, seen: Optional[Set[str]] = None) -> List[ClassInfo]:
        seen = seen if seen is not None else set()
        result: List[ClassInfo] = []
        info = self.by_name.get(name)
        if info is None or name in seen:
            return result
        seen.add(name)
        result.append(info)
        for base in info.bases:
            result.extend(self._ancestors(base, seen))
        return result

    def merged_guards(self, name: str) -> Dict[str, str]:
        merged: Dict[str, str] = {}
        for info in reversed(self._ancestors(name)):
            merged.update(info.guards)
        return merged

    def owns_lock(self, name: str) -> bool:
        return any(
            info.own_locks or info.guards for info in self._ancestors(name)
        )

    def global_guard_locks(self, attribute: str) -> Set[str]:
        """Every lock name any class declares for ``attribute``."""
        locks: Set[str] = set()
        for info in self.by_name.values():
            if attribute in info.guards:
                locks.add(info.guards[attribute])
        return locks


@dataclass
class _HeldLock:
    level: int
    token: str
    base: str
    line: int


class _FunctionAnalyzer(Reporter, ast.NodeVisitor):
    """Second pass over one module: emit findings with the global registry."""

    def __init__(
        self,
        path: str,
        registry: ClassRegistry,
        findings: List[Finding],
        graph: Dict[Tuple[str, str], Tuple[str, int]],
    ) -> None:
        self.path = path
        self.registry = registry
        self.findings = findings
        self.graph = graph
        self.class_stack: List[ClassInfo] = []
        self.function_stack: List[str] = []
        self.held: List[_HeldLock] = []
        #: local names assigned from constructor-ish calls (fresh objects)
        self.fresh_locals: List[Set[str]] = []

    # -- helpers -----------------------------------------------------------------

    @property
    def symbol(self) -> str:
        parts = [info.name for info in self.class_stack] + self.function_stack
        return ".".join(parts) or "<module>"

    def _in_exempt_method(self) -> bool:
        if not self.function_stack:
            return False
        name = self.function_stack[-1]
        return name in _EXEMPT_METHODS or name.startswith("_init_")

    def _holds_lock(self, owner_text: str, lock_name: str) -> bool:
        for held in self.held:
            if held.level != LEVEL_STATS:
                continue
            if held.token == f"stats.{lock_name}" and held.base == owner_text:
                return True
        return False

    def _is_fresh_local(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Name):
            return False
        return any(node.id in frame for frame in self.fresh_locals)

    # -- structure ---------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        info = self.registry.by_name.get(node.name)
        self.class_stack.append(
            info if info is not None else ClassInfo(node.name)
        )
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.function_stack.append(node.name)
        self.fresh_locals.append(set())
        self.generic_visit(node)
        self.function_stack.pop()
        self.fresh_locals.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- lock tracking -----------------------------------------------------------

    def _acquire(self, classified: Tuple[int, str, str], node: ast.AST) -> _HeldLock:
        level, token, base = classified
        line = getattr(node, "lineno", 0)
        if self.held:
            top = self.held[-1]
            self.graph.setdefault((top.token, token), (self.path, line))
            if top.level == LEVEL_STATS:
                self._report(
                    "RL002",
                    node,
                    f"acquiring {token} while holding leaf lock {top.token} "
                    f"(held since line {top.line})",
                    hint="stats locks are leaves of the protocol: release "
                         "before taking any other lock",
                )
            elif level <= top.level:
                self._report(
                    "RL002",
                    node,
                    f"acquiring {LOCK_ORDER[level]}-level {token} while "
                    f"holding {LOCK_ORDER[top.level]}-level {top.token} "
                    f"(held since line {top.line}) — back-edge in the "
                    f"{_ORDER_TEXT} order",
                    hint=f"acquire locks in the declared order ({_ORDER_TEXT}); "
                         f"multi-gate/multi-path acquisition must go through "
                         f"TableGateRegistry.read / "
                         f"AccessPathLockManager.claimed (which sort)",
                )
        held = _HeldLock(level=level, token=token, base=base, line=line)
        self.held.append(held)
        return held

    def visit_With(self, node: ast.With) -> None:
        acquired: List[_HeldLock] = []
        for item in node.items:
            classified = classify_lock_expr(item.context_expr)
            if classified is not None:
                acquired.append(self._acquire(classified, item.context_expr))
            else:
                self.visit(item.context_expr)
        # ExitStack.enter_context(lock_expr) acquires for the block's rest
        for statement in node.body:
            for call in [
                sub for sub in ast.walk(statement)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "enter_context"
                and sub.args
            ]:
                classified = classify_lock_expr(call.args[0])
                if classified is not None:
                    acquired.append(self._acquire(classified, call.args[0]))
            self.visit(statement)
        for _ in acquired:
            self.held.pop()

    visit_AsyncWith = visit_With

    # -- RL001 / RL004: writes ---------------------------------------------------

    def _written_attributes(self, node: ast.AST) -> List[Tuple[ast.expr, str]]:
        """(owner expression, attribute) pairs written to by ``node``."""
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        writes: List[Tuple[ast.expr, str]] = []
        for target in targets:
            for element in self._flatten_target(target):
                while isinstance(element, ast.Subscript):
                    element = element.value
                root, chain = _attr_chain_root(element)
                if root is not None and chain:
                    writes.append((root, chain[0]))
        return writes

    @staticmethod
    def _flatten_target(target: ast.expr) -> List[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            result = []
            for element in target.elts:
                result.extend(_FunctionAnalyzer._flatten_target(element))
            return result
        return [target]

    def _check_guarded_write(self, owner: ast.expr, attribute: str,
                             node: ast.AST) -> None:
        if self._in_exempt_method() or self._is_fresh_local(owner):
            return
        owner_text = expr_text(owner)
        lock_name: Optional[str] = None
        if _is_self(owner) and self.class_stack:
            lock_name = self.registry.merged_guards(
                self.class_stack[-1].name
            ).get(attribute)
        else:
            locks = self.registry.global_guard_locks(attribute)
            if len(locks) == 1:
                lock_name = next(iter(locks))
        if lock_name is None:
            return
        if self._holds_lock(owner_text, lock_name):
            return
        self._report(
            "RL001",
            node,
            f"write to guarded attribute {owner_text}.{attribute} outside "
            f"`with {owner_text}.{lock_name}`",
            hint=f"wrap the mutation in `with {owner_text}.{lock_name}:` "
                 f"(declared via @guarded_by), or move it into __init__",
            attribute=attribute,
        )

    def _check_counter_write(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        target = node.target
        root, chain = _attr_chain_root(target)
        if root is None or len(chain) != 1 or not _is_self(root):
            return
        attribute = chain[0]
        if not _is_counter_name(attribute):
            return
        if self._in_exempt_method() or self.held:
            return
        if not self.class_stack or not self.registry.owns_lock(
            self.class_stack[-1].name
        ):
            return
        self._report(
            "RL004",
            node,
            f"counter self.{attribute} incremented outside any lock in a "
            f"lock-owning class — concurrent readers lose updates",
            hint="hold the owning stats lock (e.g. `with self._stats_lock:`) "
                 "around the increment",
            attribute=attribute,
        )

    def _handle_write_statement(self, node: ast.AST) -> None:
        for owner, attribute in self._written_attributes(node):
            self._check_guarded_write(owner, attribute, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # record fresh locals: `x = SomeCall(...)` cannot be shared yet
        if (
            self.fresh_locals
            and isinstance(node.value, ast.Call)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            self.fresh_locals[-1].add(node.targets[0].id)
        self._handle_write_statement(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_write_statement(node)
        self._check_counter_write(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._handle_write_statement(node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._handle_write_statement(node)
        self.generic_visit(node)

    # -- RL001 (mutating calls) / RL005 (blocking calls) --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_blocking_io(node)
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = node.func.value
            if method in _MUTATING_METHODS and isinstance(receiver, ast.Attribute):
                root, chain = _attr_chain_root(receiver)
                if root is not None and chain:
                    self._check_guarded_write(root, chain[0], node)
            if method in _BLOCKING_CALLS and any(
                held.level == LEVEL_PATH for held in self.held
            ):
                holder = next(h for h in self.held if h.level == LEVEL_PATH)
                self._report(
                    "RL005",
                    node,
                    f"blocking call .{method}() while path lock held "
                    f"(since line {holder.line}) can deadlock the path-lock "
                    f"protocol",
                    hint="collect futures/gate work outside the path-lock "
                         "critical section and block on them after release",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_blocking_io_call(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _BLOCKING_IO_NAME_CALLS
        if not isinstance(func, ast.Attribute):
            return False
        method = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id == "os":
            return method in _BLOCKING_IO_OS_CALLS
        # <owner>._table_gates.write(...) is a lock acquisition, not file I/O
        return method in _BLOCKING_IO_ATTR_CALLS and classify_lock_expr(node) is None

    def _check_blocking_io(self, node: ast.Call) -> None:
        holder = next(
            (h for h in self.held if h.level in (LEVEL_GATE, LEVEL_PATH)),
            None,
        )
        if holder is None or not self._is_blocking_io_call(node):
            return
        self._report(
            "RL005",
            node,
            f"file I/O call {expr_text(node.func)}(...) while "
            f"{LOCK_ORDER[holder.level]} lock held (since line "
            f"{holder.line}) stalls every operation queued on that lock "
            f"for a disk round-trip",
            hint="move the durable write outside the critical section, or "
                 "ignore it inline with the group-commit reasoning when the "
                 "journal append is the commit point itself",
        )


# -- driver ----------------------------------------------------------------------

AcquisitionGraph = Dict[Tuple[str, str], Tuple[str, int]]


def analyze_paths(paths: Sequence[str]) -> Tuple[List[Finding], AcquisitionGraph]:
    """Run every rule over ``paths``; returns (findings, acquisition graph)."""
    graph: AcquisitionGraph = {}

    def check(modules, findings):
        registry = ClassRegistry()
        for _path, tree in modules:
            indexer = _ClassIndexer()
            indexer.visit(tree)
            for info in indexer.classes:
                registry.add(info)
        for path, tree in modules:
            _FunctionAnalyzer(path, registry, findings, graph).visit(tree)

    return analyze_modules(paths, "reprolint", "RL000", check), graph


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The options of ``repro lint``."""
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="finding output format",
    )


def report(paths: Sequence[str] = (), output_format: str = "text") -> int:
    """Analyze ``paths`` (default ``src/repro``) and print the report.

    Text puts active findings on stdout and the summary on stderr; JSON is
    one document (findings, the acquisition graph, a summary).  Returns the
    exit status: 0 clean, 1 active findings, 2 a path that cannot be read.
    """
    try:
        findings, graph = analyze_paths(list(paths) or ["src/repro"])
    except FileNotFoundError as error:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2
    active = [finding for finding in findings if not finding.suppressed_by]
    if output_format == "json":
        print(json.dumps({
            "findings": [asdict(finding) for finding in findings],
            "acquisition_graph": [
                {
                    "from": source,
                    "to": destination,
                    "first_seen": {"path": where[0], "line": where[1]},
                }
                for (source, destination), where in sorted(graph.items())
            ],
            "summary": {
                "total": len(findings),
                "active": len(active),
                "suppressed": len(findings) - len(active),
            },
        }, indent=2))
    else:
        for finding in active:
            print(finding.render())
        print(
            f"reprolint: {len(active)} finding(s) "
            f"({len(findings) - len(active)} suppressed, "
            f"{len(graph)} acquisition edge(s) observed)",
            file=sys.stderr,
        )
    return int(bool(active))
