"""reproperf — the kernel analyzer: hot paths, the cost model, typed buffers.

The paper's headline results are *cost curves*: per-query comparisons and
tuple movements that shrink as the index converges.  Three classes of bug
silently falsify them — an uncharged compare/move site under-reports the
logical cost model, an accidental Python-level allocation or attribute
reload inside a per-row loop bends every wall-clock figure, and a kernel
declared vectorized (:func:`repro.analysis_tools.guards.typed_kernel`) that
drifts back to per-element Python work undoes the typed-buffer migration.
This analyzer walks the kernel modules (``common.KERNEL_TARGETS``) once,
with nothing but :mod:`ast`:

``PF001`` object allocation inside a hot loop
    List/dict/set displays, comprehensions, generator expressions,
    lambdas, ``list()``/``dict()``/``set()``/``tuple()``/``sorted()``
    constructor calls, and fresh tuples fed to ``.append`` allocate a
    Python object per iteration.
``PF002`` repeated attribute loads inside a hot loop
    The same ``self._values``-style attribute chain loaded two or more
    times per iteration pays the CPython attribute-lookup tax each time;
    hoist it to a local before the loop.  Chains that are rebound inside
    the loop, or used only as call targets, are not flagged.
``PF003`` cost-model soundness for ``@charges``-annotated kernels
    A kernel decorated :func:`repro.analysis_tools.guards.charges` must
    (a) record every channel it declares, (b) declare every channel it
    records, and (c) charge element compare/move sites on the path that
    executes them — a subscript store inside an ``if`` arm whose
    ``record_move`` lives in the *other* arm is a silent cost leak.
``PF004`` loop-invariant ``len()`` recomputed in a ``while`` condition
    ``while i < len(values)`` re-measures ``values`` every iteration even
    when the body never changes its length.
``PF005`` per-element call into Python-level code from a hot loop
    Each such call blocks the typed-buffer kernel migration (the
    interpreter must re-enter per element); findings name the callee so
    they double as the migration worklist.

The ``TB`` rules apply only inside ``@typed_kernel`` functions and check
the body against the declaration (which parameters are flat numpy buffers,
which the kernel mutates):

``TB001`` per-element Python iteration over a typed buffer
    A ``for`` loop over a declared buffer (directly, via ``range(len(...))``,
    ``enumerate``/``zip``), or a ``while`` loop walking a buffer through a
    mutated index.  Iterating a ``*`` container of buffers is fine (one
    iteration per column, not per element); the loop target then becomes
    a tracked buffer itself.
``TB002`` dtype-unstable operation on the hot path
    ``.tolist()`` / ``list(...)`` on a buffer boxes every element;
    ``np.array([...])`` literals mixing int and float constants produce a
    value-dependent dtype; an explicit ``dtype=object`` de-vectorizes every
    downstream op.
``TB003`` typed kernel calling an unannotated callee with a buffer
    A Python-level callee with no ``@typed_kernel`` declaration of its own
    can break the contract invisibly, so buffers stay inside the boundary.
``TB004`` analytic-charge mismatch
    A vectorized kernel computes its ``@charges`` channels in closed form;
    a ``counters.record_*`` call inside a loop is the removed per-element
    loop surviving in the accounting.
``TB005`` in-place buffer mutation without ownership
    Subscript stores, in-place sorts/fills on a declared buffer (or an
    alias/view of one) that the kernel does not list in ``mutates=`` —
    the ownership handshake the runtime type witness relies on.

Suppressions are ``reproperf.toml`` entries or inline
``# reproperf: ignore[RULE, ...]`` comments; findings, output formats and
exit status follow the contract in :mod:`repro.analysis_tools.common`.  Run
``python -m repro lint``, or this analyzer alone with
``python -m repro.analysis_tools.reproperf [paths] [--format=text|json]``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.common import (
    KERNEL_TARGETS as DEFAULT_TARGETS,
    RECORD_METHODS,
    Analyzer,
    Finding,
    Reporter,
    analyze_modules,
    decorator_call,
    expr_text,
    iter_stop_at_functions,
    load_baseline,
    python_level_names,
    run_cli,
    simple_name,
)
from repro.analysis_tools.guards import CHARGE_CHANNELS

__all__ = [
    "RULES", "ANALYZER", "DEFAULT_TARGETS", "Finding", "analyze_paths",
    "load_baseline", "main",
]


RULES = {
    "PF001": "object allocation inside a hot loop",
    "PF002": "repeated attribute loads inside a hot loop",
    "PF003": "@charges kernel with unsound cost accounting",
    "PF004": "loop-invariant len() recomputed in a while condition",
    "PF005": "per-element Python-level call from a hot loop",
    "TB001": "per-element Python iteration over a typed buffer",
    "TB002": "dtype-unstable operation on a typed-kernel hot path",
    "TB003": "typed kernel passes a buffer to an unannotated callee",
    "TB004": "@charges channel bumped per iteration instead of closed form",
    "TB005": "in-place mutation of a buffer the kernel does not own",
}

#: builtin constructors whose call allocates a fresh container
_ALLOCATING_BUILTINS = {"list", "dict", "set", "tuple", "sorted"}

#: roots whose methods dispatch to C, not bytecode (safe in hot loops)
_NATIVE_ROOTS = {
    "np", "numpy", "math", "bisect", "heapq", "itertools", "operator",
    "threading", "os", "sys", "time", "array",
}

#: method names that resolve to C implementations on the builtin/ndarray
#: types the kernels traffic in — calling them per element is cheap-ish
#: and, more to the point, not a typed-buffer migration blocker
_NATIVE_METHODS = {
    # list / dict / set
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "get", "keys", "values",
    "items", "sort", "reverse", "copy", "count", "index",
    # ndarray / scalar
    "astype", "tolist", "item", "fill", "searchsorted", "argsort",
    "min", "max", "sum", "any", "all", "nonzero", "reshape", "view",
    "take", "partition", "argpartition", "cumsum",
    # str
    "join", "split", "startswith", "endswith", "format", "strip",
    # locks / sync primitives
    "acquire", "release", "locked", "wait", "notify", "notify_all",
}

#: functions where hot-loop rules do not apply: construction, teardown,
#: invariant checks and human-facing description helpers run off the
#: per-query path
_EXEMPT_FUNCTIONS = {"check_invariants", "describe", "structure_description"}
_EXEMPT_DECORATORS = {"property", "cached_property"}

#: ndarray methods that mutate their receiver in place
_MUTATING_BUFFER_METHODS = {"sort", "fill", "partition", "put", "resize"}

#: taint kinds of a typed kernel's names
_BUFFER, _CONTAINER = "buffer", "container"


def _attr_chain(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``a.b.c`` -> ("a", "a.b.c") when the chain is names all the way down."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not parts:
        return None
    parts.append(node.id)
    parts.reverse()
    return node.id, ".".join(parts)


def _record_calls(nodes: Iterable[ast.AST]) -> Iterator[Tuple[str, ast.Call]]:
    """(channel, call) pairs for every ``*.record_<x>(...)`` among ``nodes``."""
    for sub in nodes:
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in RECORD_METHODS
        ):
            yield RECORD_METHODS[sub.func.attr], sub


def _loop_region(loop: ast.stmt) -> List[ast.AST]:
    """Nodes evaluated once per iteration (body + ``while`` test)."""
    region: List[ast.AST] = []
    if isinstance(loop, ast.While):
        region.extend(iter_stop_at_functions(loop.test))
    for statement in loop.body:
        region.extend(iter_stop_at_functions(statement))
    return region


@dataclass
class KernelDecl:
    """One ``@typed_kernel`` declaration, read from the decorator AST."""

    symbol: str
    path: str
    line: int
    buffers: Dict[str, str] = field(default_factory=dict)
    mutates: Set[str] = field(default_factory=set)


def _constant_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _typed_kernel_decl(
    node: ast.FunctionDef, symbol: str, path: str
) -> Optional[KernelDecl]:
    """Parse the ``@typed_kernel(buffers={...}, mutates=(...))`` of ``node``."""
    decorator = decorator_call(node, "typed_kernel")
    if decorator is None:
        return None
    decl = KernelDecl(symbol=symbol, path=path, line=node.lineno)
    for keyword in decorator.keywords:
        if keyword.arg == "buffers" and isinstance(keyword.value, ast.Dict):
            for key, value in zip(keyword.value.keys, keyword.value.values):
                name = _constant_str(key)
                if name is not None:
                    decl.buffers[name] = _constant_str(value) or "numeric"
        elif keyword.arg == "mutates" and isinstance(
            keyword.value, (ast.List, ast.Tuple, ast.Set)
        ):
            for element in keyword.value.elts:
                name = _constant_str(element)
                if name is not None:
                    decl.mutates.add(name)
    return decl


class _ModuleAnalyzer(Reporter, ast.NodeVisitor):
    """Single pass over one module: PF rules everywhere, TB rules per kernel."""

    def __init__(self, path: str, findings: List[Finding],
                 typed_kernel_names: Set[str], inventory: List[KernelDecl]) -> None:
        self.path = path
        self.findings = findings
        self.typed_kernel_names = typed_kernel_names
        self.inventory = inventory
        self.scope_stack: List[str] = []
        #: names that resolve to Python-level code: module-level defs plus
        #: anything imported from the repro package itself
        self.python_level_names: Set[str] = set()
        self._seen: Set[Tuple[str, int, int, str]] = set()

    # -- plumbing ----------------------------------------------------------------

    @property
    def symbol(self) -> str:
        return ".".join(self.scope_stack) or "<module>"

    def _report(self, rule: str, node: ast.AST, message: str, hint: str = "",
                attribute: str = "") -> None:
        # nested loops put one node into several regions: report it once
        dedup = (rule, getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
                 attribute)
        if dedup not in self._seen:
            self._seen.add(dedup)
            super()._report(rule, node, message, hint, attribute)

    def visit_Module(self, node: ast.Module) -> None:
        self.python_level_names = python_level_names(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope_stack.append(node.name)
        self.generic_visit(node)
        self.scope_stack.pop()

    @staticmethod
    def _is_exempt(node: ast.FunctionDef) -> bool:
        name = node.name
        if name in _EXEMPT_FUNCTIONS or name.startswith("_init_"):
            return True
        if name.startswith("__") and name.endswith("__") and name != "__call__":
            return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id in _EXEMPT_DECORATORS:
                return True
            if isinstance(decorator, ast.Attribute) and decorator.attr in (
                _EXEMPT_DECORATORS | {"setter", "getter", "deleter"}
            ):
                return True
        return False

    @staticmethod
    def _charges_channels(node: ast.FunctionDef) -> Optional[List[str]]:
        """The channels declared by an ``@charges`` decorator, or None."""
        decorator = decorator_call(node, "charges")
        if decorator is None:
            return None
        return [
            argument.value
            for argument in decorator.args
            if isinstance(argument, ast.Constant)
            and isinstance(argument.value, str)
        ]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope_stack.append(node.name)
        if not self._is_exempt(node):
            declared = self._charges_channels(node)
            if declared is not None:
                self._check_charges(node, declared)
            self._scan_loops(node.body)
        decl = _typed_kernel_decl(node, self.symbol, self.path)
        if decl is not None:
            self.inventory.append(decl)
            _KernelChecker(self, node, decl).check()
        self.generic_visit(node)
        self.scope_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- hot-loop rules (PF001 / PF002 / PF004 / PF005) ---------------------------

    def _scan_loops(self, statements: Sequence[ast.stmt]) -> None:
        """Find every loop in ``statements``, not crossing scope boundaries."""
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            if isinstance(statement, (ast.For, ast.While)):
                self._check_loop(statement)
            for _field, value in ast.iter_fields(statement):
                if isinstance(value, list) and value and isinstance(
                    value[0], ast.stmt
                ):
                    self._scan_loops(value)

    def _check_loop(self, loop: ast.stmt) -> None:
        region = _loop_region(loop)
        self._check_allocations(region)
        self._check_attribute_reloads(loop, region)
        if isinstance(loop, ast.While):
            self._check_invariant_len(loop)
        self._check_python_calls(region)

    def _check_allocations(self, region: Sequence[ast.AST]) -> None:
        for node in region:
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                kind = type(node).__name__
                self._report(
                    "PF001", node,
                    f"{kind} allocates per iteration of the enclosing loop",
                    hint="build the result once outside the loop, or fold "
                         "the work into a vectorized kernel",
                )
            elif isinstance(node, ast.Lambda):
                self._report(
                    "PF001", node,
                    "lambda creates a function object per iteration",
                    hint="define the function once before the loop",
                )
            elif isinstance(node, (ast.List, ast.Set)) and isinstance(
                getattr(node, "ctx", ast.Load()), ast.Load
            ):
                kind = "list" if isinstance(node, ast.List) else "set"
                self._report(
                    "PF001", node,
                    f"{kind} display allocates per iteration of the "
                    f"enclosing loop",
                    hint="preallocate outside the loop or use a typed "
                         "buffer/ndarray",
                )
            elif isinstance(node, ast.Dict):
                self._report(
                    "PF001", node,
                    "dict display allocates per iteration of the enclosing "
                    "loop",
                    hint="preallocate outside the loop or use parallel "
                         "arrays",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ALLOCATING_BUILTINS
            ):
                self._report(
                    "PF001", node,
                    f"{node.func.id}() allocates a fresh container per "
                    f"iteration of the enclosing loop",
                    hint="hoist the construction out of the loop or operate "
                         "on a preallocated buffer",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
            ):
                for argument in node.args:
                    if isinstance(argument, ast.Tuple):
                        self._report(
                            "PF001", argument,
                            "fresh tuple built per iteration just to be "
                            "appended",
                            hint="append to parallel lists (or preallocated "
                                 "arrays) instead of boxing a tuple per "
                                 "element",
                        )

    def _check_attribute_reloads(self, loop: ast.stmt,
                                 region: Sequence[ast.AST]) -> None:
        # names and chains rebound inside the loop make hoisting unsafe
        stored_names: Set[str] = set()
        stored_chains: Set[str] = set()
        if isinstance(loop, ast.For):
            for target in ast.walk(loop.target):
                if isinstance(target, ast.Name):
                    stored_names.add(target.id)
        for node in region:
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                stored_names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                chain = _attr_chain(node)
                if chain is not None:
                    stored_chains.add(chain[1])

        call_targets = {
            id(node.func) for node in region
            if isinstance(node, ast.Call)
        }
        attribute_parents = {
            id(node.value) for node in region
            if isinstance(node, ast.Attribute)
        }
        loads: Dict[str, List[ast.Attribute]] = {}
        for node in region:
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            if id(node) in call_targets:  # bound-method lookup, not data
                continue
            if id(node) in attribute_parents:  # only maximal chains count
                continue
            chain = _attr_chain(node)
            if chain is None:
                continue
            root, text = chain
            if root in stored_names or text in stored_chains:
                continue
            if any(text.startswith(stored + ".") for stored in stored_chains):
                continue
            loads.setdefault(text, []).append(node)

        for text, nodes in loads.items():
            if len(nodes) < 2:
                continue
            first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
            local = text.rsplit(".", 1)[-1]
            self._report(
                "PF002", first,
                f"attribute chain `{text}` loaded {len(nodes)} times per "
                f"iteration of the loop at line {loop.lineno}",
                hint=f"hoist it to a local before the loop "
                     f"(`{local} = {text}`) — attribute lookups are "
                     f"per-iteration bytecode, locals are array slots",
                attribute=text,
            )

    def _check_invariant_len(self, loop: ast.While) -> None:
        for node in ast.walk(loop.test):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and len(node.args) == 1
            ):
                continue
            argument = node.args[0]
            if isinstance(argument, ast.Name):
                root, text = argument.id, argument.id
            else:
                chain = _attr_chain(argument)
                if chain is None:
                    continue
                root, text = chain
            if self._length_changes(loop.body, root, text):
                continue
            self._report(
                "PF004", loop,
                f"`len({text})` recomputed every iteration of the while "
                f"condition but the loop body never changes its length",
                hint=f"hoist `n = len({text})` above the loop (or iterate "
                     f"with `for`/`range`)",
                attribute=text,
            )

    @staticmethod
    def _length_changes(body: Sequence[ast.stmt], root: str, text: str) -> bool:
        resizing = {"append", "extend", "insert", "pop", "remove", "clear"}
        for statement in body:
            for node in iter_stop_at_functions(statement):
                if isinstance(node, ast.Name) and node.id == root and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    return True
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    chain = _attr_chain(node)
                    if chain is not None and chain[1] == text:
                        return True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in resizing
                    and expr_text(node.func.value) == text
                ):
                    return True
                if isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Del
                ) and expr_text(node.value) == text:
                    return True
        return False

    def _check_python_calls(self, region: Sequence[ast.AST]) -> None:
        for node in region:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id not in self.python_level_names:
                    continue
                self._report(
                    "PF005", node,
                    f"call to Python-level function `{func.id}` per "
                    f"iteration of the enclosing loop",
                    hint="per-element interpreter re-entry blocks the "
                         "typed-buffer kernel migration; batch the work or "
                         "inline it as array operations",
                    attribute=func.id,
                )
            elif isinstance(func, ast.Attribute):
                method = func.attr
                if method in _NATIVE_METHODS or method in RECORD_METHODS:
                    continue
                if method.startswith("record_") or method.startswith("__"):
                    continue
                chain = _attr_chain(func)
                if chain is not None and chain[0] in _NATIVE_ROOTS:
                    continue
                self._report(
                    "PF005", node,
                    f"call to Python-level method `{expr_text(func)}` per "
                    f"iteration of the enclosing loop",
                    hint="per-element interpreter re-entry blocks the "
                         "typed-buffer kernel migration; batch the work or "
                         "push the loop into the callee",
                    attribute=method,
                )
            elif isinstance(func, ast.Call):
                self._report(
                    "PF005", node,
                    f"dynamically dispatched call "
                    f"`{expr_text(func)}(...)` per iteration of the "
                    f"enclosing loop",
                    hint="resolve the callable once before the loop",
                    attribute="<dynamic>",
                )

    # -- PF003: @charges soundness ------------------------------------------------

    def _check_charges(self, node: ast.FunctionDef, declared: List[str]) -> None:
        recorded: Set[str] = set()
        for channel, call in _record_calls(iter_stop_at_functions(node)):
            recorded.add(channel)
            if channel not in declared:
                self._report(
                    "PF003", call,
                    f"kernel charges `{channel}` but @charges does not "
                    f"declare it",
                    hint=f"add \"{channel}\" to the @charges declaration so "
                         f"the contract stays exhaustive",
                    attribute=channel,
                )
        for channel in declared:
            if channel not in recorded:
                self._report(
                    "PF003", node,
                    f"kernel declares @charges(\"{channel}\") but never "
                    f"records it",
                    hint=f"charge counters.{CHARGE_CHANNELS[channel][0]}(...) "
                         f"or drop the declaration",
                    attribute=channel,
                )
        self._check_charge_paths(node.body, declared, frozenset())

    @staticmethod
    def _is_counters_guard(test: ast.expr) -> bool:
        """True for ``if counters is not None:``-style accounting guards.

        When ``counters`` is absent nothing *needs* charging, so a charge
        under this guard is unconditional as far as the cost model goes.
        """
        return any(
            isinstance(node, ast.Name) and node.id == "counters"
            for node in ast.walk(test)
        )

    def _block_channels(self, statements: Sequence[ast.stmt]) -> Set[str]:
        """Channels recorded unconditionally at this block level."""
        channels: Set[str] = set()
        conditional = (ast.If, ast.For, ast.While, ast.Match,
                       ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for statement in statements:
            if isinstance(statement, ast.If) and self._is_counters_guard(
                statement.test
            ):
                channels |= self._block_channels(statement.body)
                continue
            if isinstance(statement, conditional):
                continue
            if isinstance(statement, ast.With):
                channels |= self._block_channels(statement.body)
            elif isinstance(statement, ast.Try):
                channels |= self._block_channels(statement.body)
            else:
                for channel, _call in _record_calls(
                    iter_stop_at_functions(statement)
                ):
                    channels.add(channel)
        return channels

    def _check_charge_paths(self, statements: Sequence[ast.stmt],
                            declared: List[str],
                            inherited: frozenset) -> None:
        available = frozenset(inherited | self._block_channels(statements))
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            for channel, site, what in self._mutation_sites(statement):
                if channel not in declared:
                    self._report(
                        "PF003", site,
                        f"kernel {what} but @charges does not declare "
                        f"`{channel}`",
                        hint=f"declare \"{channel}\" and charge "
                             f"counters.{CHARGE_CHANNELS[channel][0]}(...) "
                             f"next to the mutation",
                        attribute=channel,
                    )
                elif channel not in available:
                    self._report(
                        "PF003", site,
                        f"kernel {what} on a path that never charges "
                        f"`{channel}`",
                        hint=f"charge counters."
                             f"{CHARGE_CHANNELS[channel][0]}(...) in the "
                             f"same branch as the mutation (a charge in a "
                             f"sibling branch does not cover this path)",
                        attribute=channel,
                    )
            for _field, value in ast.iter_fields(statement):
                if isinstance(value, list) and value and isinstance(
                    value[0], ast.stmt
                ):
                    self._check_charge_paths(value, declared, available)

    @staticmethod
    def _mutation_sites(
        statement: ast.stmt,
    ) -> List[Tuple[str, ast.AST, str]]:
        """(channel, node, description) triples directly in ``statement``.

        Only the statement's own expressions are inspected — mutations in
        nested blocks are visited by the recursive path walk so they check
        against *their* path's charges, not this one's.
        """
        sites: List[Tuple[str, ast.AST, str]] = []

        def scan_expressions(roots: Sequence[ast.AST]) -> None:
            for root in roots:
                for node in iter_stop_at_functions(root):
                    if isinstance(node, ast.Compare) and any(
                        isinstance(side, ast.Subscript)
                        for side in [node.left, *node.comparators]
                    ):
                        sites.append(
                            ("comparisons", node, "compares elements")
                        )

        def target_moves(target: ast.expr) -> bool:
            return any(
                isinstance(sub, ast.Subscript)
                for sub in ast.walk(target)
            )

        if isinstance(statement, ast.Assign):
            if any(target_moves(target) for target in statement.targets):
                sites.append(("movements", statement, "moves elements"))
            scan_expressions([statement.value])
        elif isinstance(statement, ast.AugAssign):
            if target_moves(statement.target):
                sites.append(("movements", statement, "moves elements"))
            scan_expressions([statement.value])
        elif isinstance(statement, ast.Expr):
            call = statement.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("append", "extend", "insert")
            ):
                sites.append(("movements", statement, "moves elements"))
            scan_expressions([statement.value])
        elif isinstance(statement, (ast.If, ast.While)):
            scan_expressions([statement.test])
        elif isinstance(statement, ast.Return) and statement.value is not None:
            scan_expressions([statement.value])
        return sites


class _KernelChecker(Reporter):
    """Check one ``@typed_kernel`` body against its declaration (TB rules).

    Holds the kernel's taint state: which names are buffers (or containers
    of buffers) and which declared parameter each one aliases.
    """

    def __init__(self, module: _ModuleAnalyzer, node: ast.FunctionDef,
                 decl: KernelDecl) -> None:
        self.path = module.path
        self.findings = module.findings
        self.typed_kernel_names = module.typed_kernel_names
        self.python_level_names = module.python_level_names
        self.node = node
        self.decl = decl
        #: name -> taint kind (_BUFFER or _CONTAINER)
        self.taint: Dict[str, str] = {}
        for name, spec in decl.buffers.items():
            self.taint[name] = _CONTAINER if "*" in spec else _BUFFER
        #: buffer name -> the declared parameter it aliases (for messages)
        self.alias_of: Dict[str, str] = {name: name for name in decl.buffers}

    # -- plumbing ----------------------------------------------------------------

    @property
    def symbol(self) -> str:
        return self.decl.symbol

    def _buffer_name(self, node: ast.expr) -> Optional[str]:
        """The tainted buffer name ``node`` refers to, if any.

        Follows plain names and subscript *views* (``buf[a:b]`` is still
        the same storage); attribute chains are not tracked — kernels take
        buffers as parameters, not through ``self``.
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name) and self.taint.get(node.id) == _BUFFER:
            return node.id
        return None

    def _container_name(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name) and self.taint.get(node.id) == _CONTAINER:
            return node.id
        return None

    def _root_param(self, name: str) -> str:
        return self.alias_of.get(name, name)

    # -- the single pass ---------------------------------------------------------

    def check(self) -> None:
        self._collect_aliases()
        for sub in iter_stop_at_functions(self.node):
            if isinstance(sub, (ast.For, ast.While)):
                self._check_loop(sub)
            elif isinstance(sub, ast.Call):
                self._check_call(sub)
                self._check_mutating_call(sub)
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                self._check_mutation(sub)

    def _collect_aliases(self) -> None:
        """Propagate buffer taint through plain assignments and views.

        Flow-insensitive on purpose: a name ever bound to a buffer (or a
        view of one) counts as that buffer everywhere, trading precision
        for zero false negatives on aliased mutation (TB005).
        """
        changed = True
        while changed:
            changed = False
            for sub in iter_stop_at_functions(self.node):
                if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                    continue
                target = sub.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                source = self._buffer_name(sub.value)
                if source is not None and self.taint.get(target.id) != _BUFFER:
                    self.taint[target.id] = _BUFFER
                    self.alias_of[target.id] = self._root_param(source)
                    changed = True
                elif isinstance(sub.value, (ast.List, ast.Tuple)) and any(
                    self._buffer_name(element) is not None
                    for element in sub.value.elts
                ) and self.taint.get(target.id) != _CONTAINER:
                    self.taint[target.id] = _CONTAINER
                    for element in sub.value.elts:
                        buffer = self._buffer_name(element)
                        if buffer is not None:
                            self.alias_of[target.id] = self._root_param(buffer)
                            break
                    changed = True
                elif isinstance(sub.value, ast.Call) and isinstance(
                    sub.value.func, ast.Name
                ) and self.taint.get(target.id) is None:
                    # a Python-level helper fed a tainted buffer/container
                    # returns data derived from it (payload normalizers):
                    # treat the result as a container with the same root
                    tainted_root = self._tainted_argument_root(sub.value)
                    if tainted_root is not None:
                        self.taint[target.id] = _CONTAINER
                        self.alias_of[target.id] = tainted_root
                        changed = True
            # iterating a container yields buffers: taint the loop target
            for sub in iter_stop_at_functions(self.node):
                if not isinstance(sub, ast.For) or not isinstance(
                    sub.target, ast.Name
                ):
                    continue
                root: Optional[str] = None
                container = self._container_name(sub.iter)
                if container is not None:
                    root = self._root_param(container)
                elif isinstance(sub.iter, ast.Call) and isinstance(
                    sub.iter.func, ast.Name
                ) and sub.iter.func.id in self.python_level_names:
                    root = self._tainted_argument_root(sub.iter)
                if root is not None and (
                    self.taint.get(sub.target.id) != _BUFFER
                ):
                    self.taint[sub.target.id] = _BUFFER
                    self.alias_of[sub.target.id] = root
                    changed = True

    def _tainted_argument_root(self, call: ast.Call) -> Optional[str]:
        """Root param of the first tainted argument of ``call``, if any."""
        for argument in list(call.args) + [kw.value for kw in call.keywords]:
            buffer = self._buffer_name(argument)
            if buffer is not None:
                return self._root_param(buffer)
            container = self._container_name(argument)
            if container is not None:
                return self._root_param(container)
        return None

    # -- TB001 / TB004: loops ----------------------------------------------------

    def _check_loop(self, loop: ast.stmt) -> None:
        region = _loop_region(loop)
        if isinstance(loop, ast.For):
            self._check_for_loop(loop)
        else:
            self._check_while_loop(loop, region)
        for channel, call in _record_calls(region):
            self._report(
                "TB004", call,
                f"`{channel}` charged inside a loop — a vectorized "
                f"kernel computes its @charges channels in closed "
                f"form",
                hint="hoist the charge out of the loop and record "
                     "the analytic total (e.g. "
                     "record_move(len(moved)) once)",
                attribute=channel,
            )

    def _check_for_loop(self, loop: ast.For) -> None:
        iterated = self._iterated_buffer(loop.iter)
        if iterated is None:
            return
        self._report(
            "TB001", loop,
            f"per-element Python loop over typed buffer "
            f"`{self._root_param(iterated)}`",
            hint="replace the loop with vectorized numpy operations "
                 "(masks, argsort, fancy indexing); per-element "
                 "interpreter re-entry is what the typed-kernel contract "
                 "forbids",
            attribute=self._root_param(iterated),
        )

    def _iterated_buffer(self, iterable: ast.expr) -> Optional[str]:
        """The buffer a ``for`` iterable walks element-wise, if any."""
        direct = self._buffer_name(iterable)
        if direct is not None:
            return direct
        if not isinstance(iterable, ast.Call):
            return None
        func = iterable.func
        name = func.id if isinstance(func, ast.Name) else ""
        if name in ("enumerate", "zip", "reversed", "sorted", "iter"):
            for argument in iterable.args:
                found = self._iterated_buffer(argument)
                if found is not None:
                    return found
        elif name == "range":
            for argument in iterable.args:
                for sub in ast.walk(argument):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "len"
                        and sub.args
                    ):
                        found = self._buffer_name(sub.args[0])
                        if found is not None:
                            return found
        return None

    def _check_while_loop(self, loop: ast.While,
                          region: Sequence[ast.AST]) -> None:
        mutated_names = {
            sub.id for sub in region
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        }
        for sub in region:
            if not isinstance(sub, ast.Subscript):
                continue
            buffer = self._buffer_name(sub.value)
            if buffer is None:
                continue
            index_names = {
                name.id for name in ast.walk(sub.slice)
                if isinstance(name, ast.Name)
            }
            if index_names & mutated_names:
                self._report(
                    "TB001", loop,
                    f"while loop walks typed buffer "
                    f"`{self._root_param(buffer)}` one element at a time "
                    f"through a mutated index",
                    hint="express the walk as a vectorized scan "
                         "(searchsorted / cumulative masks) instead of an "
                         "interpreter-stepped cursor",
                    attribute=self._root_param(buffer),
                )
                return

    # -- TB002 / TB003 -----------------------------------------------------------

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        # .tolist() on a buffer boxes every element
        if isinstance(func, ast.Attribute) and func.attr == "tolist":
            buffer = self._buffer_name(func.value)
            if buffer is not None:
                self._report(
                    "TB002", call,
                    f"`.tolist()` boxes every element of typed buffer "
                    f"`{self._root_param(buffer)}`",
                    hint="stay in ndarray land; if Python objects are "
                         "required the conversion belongs outside the "
                         "kernel boundary",
                    attribute=self._root_param(buffer),
                )
                return
        if isinstance(func, ast.Name):
            if func.id == "list" and call.args:
                buffer = self._buffer_name(call.args[0])
                if buffer is not None:
                    self._report(
                        "TB002", call,
                        f"`list(...)` boxes every element of typed buffer "
                        f"`{self._root_param(buffer)}`",
                        hint="keep the data as an ndarray; boxing on the "
                             "hot path de-vectorizes the kernel",
                        attribute=self._root_param(buffer),
                    )
                    return
            self._check_python_callee(call, func.id)
        self._check_array_literal(call)

    def _check_array_literal(self, call: ast.Call) -> None:
        name = simple_name(call)
        if name not in ("array", "asarray", "fromiter"):
            return
        for keyword in call.keywords:
            if keyword.arg == "dtype":
                if simple_name(keyword.value) == "object":
                    self._report(
                        "TB002", call,
                        "explicit dtype=object de-vectorizes every "
                        "operation on the resulting array",
                        hint="use a concrete numeric dtype, or move the "
                             "object-array construction out of the kernel",
                        attribute="object",
                    )
                    return
                return  # an explicit concrete dtype is stable by definition
        if not call.args:
            return
        literal = call.args[0]
        if not isinstance(literal, (ast.List, ast.Tuple)):
            return
        kinds: Set[str] = set()
        for element in literal.elts:
            if isinstance(element, ast.Constant):
                if isinstance(element.value, bool):
                    kinds.add("bool")
                elif isinstance(element.value, int):
                    kinds.add("int")
                elif isinstance(element.value, float):
                    kinds.add("float")
        if "int" in kinds and "float" in kinds:
            self._report(
                "TB002", call,
                f"`{name}([...])` literal mixes int and float constants — "
                f"the array dtype becomes value-dependent",
                hint="pass an explicit dtype= (or make the literals "
                     "homogeneous) so the kernel's dtype is stable",
                attribute=name,
            )

    def _check_python_callee(self, call: ast.Call, callee: str) -> None:
        if callee not in self.python_level_names:
            return
        if callee in self.typed_kernel_names:
            return
        tainted = [
            self._root_param(name)
            for argument in list(call.args)
            + [kw.value for kw in call.keywords]
            for name in [
                self._buffer_name(argument) or self._container_name(argument)
            ]
            if name is not None
        ]
        if not tainted:
            return
        self._report(
            "TB003", call,
            f"typed kernel passes buffer(s) {', '.join(sorted(set(tainted)))} "
            f"to `{callee}`, which has no @typed_kernel declaration",
            hint=f"annotate `{callee}` with @typed_kernel (closing the "
                 f"contract) or keep the buffer inside this kernel",
            attribute=callee,
        )

    # -- TB005 -------------------------------------------------------------------

    def _check_mutation(self, statement: ast.stmt) -> None:
        targets = (
            statement.targets if isinstance(statement, ast.Assign)
            else [statement.target]
        )
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            buffer = self._buffer_name(target.value)
            if buffer is None:
                continue
            root = self._root_param(buffer)
            if root in self.decl.mutates:
                continue
            self._report(
                "TB005", statement,
                f"in-place store into typed buffer `{root}` which the "
                f"kernel does not declare in mutates=",
                hint=f"add \"{root}\" to the @typed_kernel mutates= "
                     f"declaration — mutated buffers may alias views "
                     f"other structures read and need the ownership "
                     f"handshake",
                attribute=root,
            )

    def _check_mutating_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _MUTATING_BUFFER_METHODS:
            return
        buffer = self._buffer_name(func.value)
        if buffer is None:
            return
        root = self._root_param(buffer)
        if root in self.decl.mutates:
            return
        self._report(
            "TB005", call,
            f"in-place `.{func.attr}()` on typed buffer `{root}` which "
            f"the kernel does not declare in mutates=",
            hint=f"add \"{root}\" to the @typed_kernel mutates= "
                 f"declaration, or operate on a copy",
            attribute=root,
        )


# -- driver ----------------------------------------------------------------------


def analyze_paths(paths: Sequence[str]) -> Tuple[
    List[Finding], Tuple[Dict[str, List[str]], List[KernelDecl]]
]:
    """Run every PF and TB rule over ``paths``.

    Returns ``(findings, (worklist, inventory))``.  The worklist maps each
    PF005 callee (including baselined ones — they are the typed-buffer
    migration inventory) to the ``path:line`` sites that call it per
    element; the inventory lists every ``@typed_kernel`` declaration seen
    (the kernel surface the contract covers), clean ones included.
    """
    inventory: List[KernelDecl] = []

    def check(modules, findings):
        typed_kernel_names = {
            node.name
            for _path, tree in modules
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and decorator_call(node, "typed_kernel") is not None
        }
        for path, tree in modules:
            _ModuleAnalyzer(path, findings, typed_kernel_names, inventory).visit(tree)

    worklist: Dict[str, List[str]] = {}
    findings = analyze_modules(paths, "reproperf", "PF000", check)
    for finding in findings:
        if finding.rule == "PF005" and finding.attribute:
            worklist.setdefault(finding.attribute, []).append(
                f"{finding.path}:{finding.line}"
            )
    inventory.sort(key=lambda decl: (decl.path, decl.line))
    return findings, (worklist, inventory)


def _payload(aux: Tuple[Dict[str, List[str]], List[KernelDecl]]) -> Dict[str, object]:
    worklist, inventory = aux
    return {
        "migration_worklist": dict(sorted(worklist.items())),
        "kernel_inventory": [
            {
                "kernel": decl.symbol,
                "path": decl.path,
                "line": decl.line,
                "buffers": dict(sorted(decl.buffers.items())),
                "mutates": sorted(decl.mutates),
            }
            for decl in inventory
        ],
    }


ANALYZER = Analyzer(
    tool="reproperf",
    description="the kernel analyzer: hot paths, the cost model, typed buffers",
    default_paths=DEFAULT_TARGETS,
    analyze=analyze_paths,
    extra_payload=_payload,
    summary=lambda aux: (
        f"{len(aux[0])} callee(s) on the migration worklist, "
        f"{len(aux[1])} typed kernel(s) under contract"
    ),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_cli(ANALYZER, argv)


if __name__ == "__main__":
    sys.exit(main())
