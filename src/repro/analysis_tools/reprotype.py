"""reprotype — typed-kernel dataflow analysis for the repro kernels.

The typed-buffer migration replaces per-element Python loops in the
cracking/merge kernels with vectorized numpy operations.  Its contract is
declared per kernel with :func:`repro.analysis_tools.guards.typed_kernel`
(which parameters are flat numpy buffers, their dtype class, and which the
kernel mutates); this analyzer walks the kernel modules with nothing but
:mod:`ast` and verifies the bodies honor it:

``TB001`` per-element Python iteration over a typed buffer
    A ``for`` loop over a declared buffer (directly, via ``range(len(...))``,
    ``enumerate``/``zip``), or a ``while`` loop walking a buffer through a
    mutated index, re-enters the interpreter once per element — exactly
    what the migration removes.  Iterating a ``*`` container of buffers is
    fine (one iteration per column, not per element); the loop target then
    becomes a tracked buffer itself.
``TB002`` dtype-unstable operation on the hot path
    ``.tolist()`` / ``list(...)`` on a buffer boxes every element;
    ``np.array([...])`` literals mixing int and float constants produce a
    value-dependent dtype; an explicit ``dtype=object`` de-vectorizes every
    downstream op.
``TB003`` typed kernel calling an unannotated callee with a buffer
    Buffers must stay inside the typed-kernel boundary: a Python-level
    callee that has no ``@typed_kernel`` declaration of its own can break
    the contract invisibly.  This closes the system so the migration
    cannot silently regress.
``TB004`` analytic-charge mismatch
    A vectorized kernel must compute its ``@charges`` channels in closed
    form; a ``counters.record_*`` call inside a loop is the removed
    per-element loop surviving in the accounting.
``TB005`` in-place buffer mutation without ownership
    Subscript stores, in-place sorts/fills on a declared buffer (or an
    alias/view of one) that the kernel does not list in ``mutates=``.
    Mutated buffers may alias a view another structure still reads (a
    base-column slice, a live cracker region); the declaration is the
    ownership handshake the runtime type witness and PR 8's single-owner
    discipline rely on.

All rules apply only inside ``@typed_kernel``-decorated functions, so the
contract is opt-in per kernel.  Suppressions are ``reprotype.toml`` entries
or inline ``# reprotype: ignore[TB00x]`` comments; findings, output formats
and exit status follow the contract in :mod:`repro.analysis_tools.common`.
Run ``python -m repro lint``, or this analyzer alone with
``python -m repro.analysis_tools.reprotype [paths] [--format=text|json]``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis_tools.common import (
    KERNEL_TARGETS as DEFAULT_TARGETS,
    RECORD_METHODS,
    Analyzer,
    Finding,
    Reporter,
    analyze_modules,
    decorator_call,
    iter_stop_at_functions,
    load_baseline,
    python_level_names,
    run_cli,
    simple_name,
)

__all__ = [
    "RULES", "ANALYZER", "DEFAULT_TARGETS", "Finding", "analyze_paths",
    "load_baseline", "main",
]

RULES = {
    "TB001": "per-element Python iteration over a typed buffer",
    "TB002": "dtype-unstable operation on a typed-kernel hot path",
    "TB003": "typed kernel passes a buffer to an unannotated callee",
    "TB004": "@charges channel bumped per iteration instead of closed form",
    "TB005": "in-place mutation of a buffer the kernel does not own",
}

#: ndarray methods that mutate their receiver in place
_MUTATING_BUFFER_METHODS = {"sort", "fill", "partition", "put", "resize"}

#: taint kinds
_BUFFER, _CONTAINER = "buffer", "container"


@dataclass
class KernelDecl:
    """One ``@typed_kernel`` declaration, read from the decorator AST."""

    name: str
    symbol: str
    path: str
    line: int
    buffers: Dict[str, str] = field(default_factory=dict)
    mutates: Set[str] = field(default_factory=set)


def _constant_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _typed_kernel_decl(
    node: ast.FunctionDef, symbol: str, path: str
) -> Optional[KernelDecl]:
    """Parse the ``@typed_kernel`` decorator of ``node``, if present."""
    decorator = decorator_call(node, "typed_kernel")
    if decorator is None:
        return None
    decl = KernelDecl(name=node.name, symbol=symbol, path=path, line=node.lineno)
    default_spec = "numeric"
    for keyword in decorator.keywords:
        if keyword.arg == "dtype":
            value = _constant_str(keyword.value)
            if value is not None:
                default_spec = value
    for keyword in decorator.keywords:
        if keyword.arg == "buffers":
            if isinstance(keyword.value, ast.Dict):
                for key, value in zip(keyword.value.keys, keyword.value.values):
                    name = _constant_str(key) if key is not None else None
                    spec = _constant_str(value)
                    if name is not None:
                        decl.buffers[name] = spec or default_spec
            elif isinstance(keyword.value, (ast.List, ast.Tuple, ast.Set)):
                for element in keyword.value.elts:
                    name = _constant_str(element)
                    if name is not None:
                        decl.buffers[name] = default_spec
        elif keyword.arg == "mutates":
            if isinstance(keyword.value, (ast.List, ast.Tuple, ast.Set)):
                for element in keyword.value.elts:
                    name = _constant_str(element)
                    if name is not None:
                        decl.mutates.add(name)
    return decl


class _KernelChecker(Reporter):
    """Check one ``@typed_kernel`` function body against its declaration."""

    def __init__(
        self,
        path: str,
        node: ast.FunctionDef,
        decl: KernelDecl,
        typed_kernel_names: Set[str],
        python_level_names: Set[str],
        findings: List[Finding],
    ) -> None:
        self.path = path
        self.node = node
        self.decl = decl
        self.typed_kernel_names = typed_kernel_names
        self.python_level_names = python_level_names
        self.findings = findings
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
            if isinstance(sub, ast.For):
                self._check_for_loop(sub)
            elif isinstance(sub, ast.While):
                self._check_while_loop(sub)
            elif isinstance(sub, ast.Call):
                self._check_call(sub)
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                self._check_mutation(sub)
        self._check_charge_sites()

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

    # -- TB001 -------------------------------------------------------------------

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

    def _check_while_loop(self, loop: ast.While) -> None:
        mutated_names: Set[str] = set()
        for statement in loop.body:
            for sub in iter_stop_at_functions(statement):
                if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store,)
                ):
                    mutated_names.add(sub.id)
                elif isinstance(sub, ast.AugAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    mutated_names.add(sub.target.id)
        region = list(iter_stop_at_functions(loop.test))
        for statement in loop.body:
            region.extend(iter_stop_at_functions(statement))
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

    # -- TB004 -------------------------------------------------------------------

    def _check_charge_sites(self) -> None:
        loops = [
            sub for sub in iter_stop_at_functions(self.node)
            if isinstance(sub, (ast.For, ast.While))
        ]
        for loop in loops:
            body_region: List[ast.AST] = []
            for statement in loop.body + getattr(loop, "orelse", []):
                body_region.extend(iter_stop_at_functions(statement))
            for sub in body_region:
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in RECORD_METHODS
                ):
                    channel = RECORD_METHODS[sub.func.attr]
                    self._report(
                        "TB004", sub,
                        f"`{channel}` charged inside a loop — a vectorized "
                        f"kernel computes its @charges channels in closed "
                        f"form",
                        hint="hoist the charge out of the loop and record "
                             "the analytic total (e.g. "
                             "record_move(len(moved)) once)",
                        attribute=channel,
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

    def check_mutating_call(self, call: ast.Call) -> None:
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


class _ModuleScanner(ast.NodeVisitor):
    """Find every ``@typed_kernel`` function and check it."""

    def __init__(
        self,
        path: str,
        typed_kernel_names: Set[str],
        findings: List[Finding],
        inventory: List[KernelDecl],
    ) -> None:
        self.path = path
        self.typed_kernel_names = typed_kernel_names
        self.findings = findings
        self.inventory = inventory
        self.scope_stack: List[str] = []
        self.python_level_names: Set[str] = set()

    def visit_Module(self, node: ast.Module) -> None:
        self.python_level_names = python_level_names(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope_stack.append(node.name)
        self.generic_visit(node)
        self.scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        symbol = ".".join(self.scope_stack + [node.name])
        decl = _typed_kernel_decl(node, symbol, self.path)
        if decl is not None:
            self.inventory.append(decl)
            checker = _KernelChecker(
                self.path, node, decl, self.typed_kernel_names,
                self.python_level_names, self.findings,
            )
            checker.check()
            for sub in iter_stop_at_functions(node):
                if isinstance(sub, ast.Call):
                    checker.check_mutating_call(sub)
        self.scope_stack.append(node.name)
        self.generic_visit(node)
        self.scope_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _collect_typed_kernel_names(trees: Sequence[ast.Module]) -> Set[str]:
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and decorator_call(node, "typed_kernel") is not None
    }


def analyze_paths(paths: Sequence[str]) -> Tuple[List[Finding], List[KernelDecl]]:
    """Run every TB rule over ``paths``.

    Returns ``(findings, inventory)`` where the inventory lists every
    ``@typed_kernel`` declaration seen (the kernel surface the contract
    covers), including clean ones.
    """
    inventory: List[KernelDecl] = []

    def check(modules, findings):
        typed_kernel_names = _collect_typed_kernel_names([t for _, t in modules])
        for path, tree in modules:
            _ModuleScanner(path, typed_kernel_names, findings, inventory).visit(tree)

    findings = analyze_modules(paths, "reprotype", "TB000", check)
    inventory.sort(key=lambda decl: (decl.path, decl.line))
    return findings, inventory


def _inventory_payload(inventory: List[KernelDecl]) -> Dict[str, object]:
    return {
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
    tool="reprotype",
    description="typed-kernel dataflow analysis for the repro kernels",
    default_paths=DEFAULT_TARGETS,
    analyze=analyze_paths,
    extra_payload=_inventory_payload,
    summary=lambda inventory: f"{len(inventory)} typed kernel(s) under contract",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_cli(ANALYZER, argv)


if __name__ == "__main__":
    sys.exit(main())
