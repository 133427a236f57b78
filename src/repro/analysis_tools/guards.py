"""Structured invariant declarations: ``@guarded_by``, ``@charges``,
``@typed_kernel`` and the lock order.

The engine's concurrency protocol guards shared mutable state with layered
locks (the schema lock, table gates, access-path locks, the WAL-order
mutex, per-object stats locks — :data:`LOCK_ORDER` declares the order once).
The *association* between an attribute and its lock used to live only in
comments; this module makes it a structured declaration that is

* executable — the decorator attaches a ``__guarded_attributes__`` mapping
  (attribute name → lock attribute name) to the class, merged across base
  classes, so tests and debuggers can introspect the discipline; and
* statically analyzable — :mod:`repro.analysis_tools.reprolint` reads the
  decorator call out of the AST and reports any write to a declared
  attribute that does not happen inside a ``with <owner>.<lock>`` block.

Usage::

    @guarded_by(
        queries_processed="_stats_lock",
        partition_splits="_stats_lock",
    )
    class PartitionedCrackedColumn:
        ...

``@charges`` applies the same pattern to the cost model: a kernel that
physically compares or moves elements must charge the matching
:class:`~repro.cost.counters.CostCounters` channel, or every paper figure
built on those counters silently under-reports.  The decorator declares
which channels a kernel touches::

    @charges("comparisons", "movements")
    def partition_two_way(values, rowids, pivot, counters):
        ...

and :mod:`repro.analysis_tools.reproperf` (rule PF003) checks the body
actually records them.  Valid channel names are the logical cost channels
of the reproduction: ``comparisons`` (value comparisons against pivots or
bounds), ``movements`` (tuple moves/swaps, ``CostCounters.tuples_moved``),
``scans`` (sequential touches), ``random_accesses`` and ``allocations``.

``@typed_kernel`` completes the set for the typed-buffer migration: it
declares which parameters of a kernel are flat numpy buffers (and their
dtype contract), so :mod:`repro.analysis_tools.reproperf` can verify the
body stays vectorized (rules TB001–TB005) and the
:class:`~repro.analysis_tools.type_witness.TypeConformanceWitness` can
assert dtype/contiguity/no-object-escape at the call boundary::

    @typed_kernel(buffers={"segment": "numeric", "rowids": "int64",
                           "payload": "numeric*"},
                  mutates=())
    @charges("comparisons", "movements")
    def partition_two_way(segment, rowids, pivot, counters, payload=None):
        ...

Buffer specs are dtype names (``"int64"``) or kind classes (``"numeric"``
= any int/float column dtype); a ``?`` suffix allows None, a ``*`` suffix
declares a list/tuple of buffers.  ``mutates`` names the buffers the
kernel writes in place — ownership the reproperf TB005 rule checks
against aliased views.

``@guarded_by`` and ``@charges`` are free of runtime enforcement: the
point is a single, checkable source of truth, not per-access overhead on
hot paths.  ``@typed_kernel`` follows the same philosophy — its wrapper
is one global read per call — unless the type witness is armed
(``REPRO_TYPE_WITNESS=1``), when every declared buffer is checked.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, Sequence, Tuple, Type, TypeVar, Union

from repro.analysis_tools.type_witness import parse_buffer_spec, type_witness

T = TypeVar("T")

#: channel name -> the CostCounters recording method PF003 accepts for it
CHARGE_CHANNELS: Dict[str, Tuple[str, ...]] = {
    "comparisons": ("record_comparisons",),
    "movements": ("record_move",),
    "scans": ("record_scan",),
    "random_accesses": ("record_random_access",),
    "allocations": ("record_allocation",),
    "pieces": ("record_pieces",),
}

#: The engine's lock order, outermost first: a thread may acquire a lock only
#: at a level strictly after every level it already holds.  The static rule
#: (reprolint ``RL002``) and the runtime lock-order witness both read this
#: table; ``docs/CONCURRENCY.md`` explains why each level sits where it does.
LOCK_ORDER: Tuple[str, ...] = ("schema", "gate", "path", "wal_order", "stats")

#: level name -> rank in :data:`LOCK_ORDER` (lower is acquired first)
LOCK_RANK: Dict[str, int] = {level: rank for rank, level in enumerate(LOCK_ORDER)}

#: The lock attributes that sit above the leaves.  ``_table_gates`` and
#: ``_path_locks`` are registries entered through their sorting helpers; the
#: other two are plain mutexes.  Every other lock — per-object statistics
#: locks, registry guards, the WAL's internal mutex — is a ``"stats"`` leaf,
#: under which nothing may be acquired.
LOCK_LEVELS: Dict[str, str] = {
    "_schema_lock": "schema",
    "_table_gates": "gate",
    "_path_locks": "path",
    "_wal_order_lock": "wal_order",
}


def guarded_by(**attribute_locks: str):
    """Class decorator declaring ``attribute="lock_attribute"`` pairs.

    Each keyword names a shared mutable attribute of the class and the
    lock attribute (a ``threading.Lock``/``RLock``/``Condition`` held via
    ``with``) that must protect every write to it outside ``__init__``.
    Declarations merge with (and may override) those of base classes.
    """
    if not attribute_locks:
        raise ValueError("guarded_by() needs at least one attribute=lock pair")
    for attribute, lock_name in attribute_locks.items():
        if not isinstance(lock_name, str) or not lock_name:
            raise ValueError(
                f"guarded_by({attribute}=...) needs a non-empty lock "
                f"attribute name, got {lock_name!r}"
            )

    def decorate(cls: Type[T]) -> Type[T]:
        merged: Dict[str, str] = {}
        for base in reversed(cls.__mro__[1:]):
            merged.update(getattr(base, "__guarded_attributes__", {}))
        merged.update(attribute_locks)
        cls.__guarded_attributes__ = merged
        return cls

    return decorate


def guarded_attributes(cls: type) -> Dict[str, str]:
    """The merged attribute → lock mapping of ``cls`` (empty if undeclared)."""
    return dict(getattr(cls, "__guarded_attributes__", {}))


def charges(*channels: str) -> Callable[[T], T]:
    """Declare the cost channels a kernel must charge on every mutating path.

    Applies to functions and methods alike; on classes the declarations of
    an overriding method replace (not merge with) the base method's, since
    the attribute lives on the function object itself.  The declared tuple
    is normalized (deduplicated, declaration order preserved) and attached
    as ``__charged_counters__``.
    """
    if not channels:
        raise ValueError("charges() needs at least one cost channel name")
    normalized = []
    for channel in channels:
        if not isinstance(channel, str) or channel not in CHARGE_CHANNELS:
            raise ValueError(
                f"charges() got unknown cost channel {channel!r}; "
                f"valid channels: {', '.join(sorted(CHARGE_CHANNELS))}"
            )
        if channel not in normalized:
            normalized.append(channel)

    def decorate(func: T) -> T:
        func.__charged_counters__ = tuple(normalized)
        return func

    return decorate


def charged_counters(func: Union[Callable, type]) -> Tuple[str, ...]:
    """The channels ``func`` declares via ``@charges`` (empty if undeclared)."""
    return tuple(getattr(func, "__charged_counters__", ()))


def typed_kernel(
    *, buffers: Dict[str, str], mutates: Sequence[str] = ()
) -> Callable[[Callable], Callable]:
    """Declare which parameters of a kernel are flat numpy buffers.

    ``buffers`` maps parameter names to buffer specs.  A spec is a dtype
    name (``"int64"``, ``"float64"``) or a kind class (``"numeric"`` = any
    integer/float dtype, ``"integer"``, ``"float"``) plus optional
    suffixes: ``?`` allows None, ``*`` declares a list/tuple of buffers
    (e.g. a payload-column container).  ``mutates`` names the declared
    buffers the kernel writes in place — the ownership declaration
    reproperf's TB005 rule checks mutations against.

    The declaration is attached as ``__typed_buffers__`` /
    ``__typed_mutates__`` / ``__typed_kernel__`` for introspection; the
    static check reads the decorator call itself.  At runtime the wrapper
    costs one module-global read per call; when the
    :mod:`~repro.analysis_tools.type_witness` is armed it checks every
    declared buffer (dtype, 1-D, contiguity, writeability for mutated
    buffers) and the return value (no object-dtype escape).
    """
    normalized = dict(buffers)
    if not normalized:
        raise ValueError("typed_kernel() needs at least one buffer parameter")
    for name, spec in normalized.items():
        if not isinstance(spec, str) or not spec:
            raise ValueError(
                f"typed_kernel(buffers={{{name!r}: ...}}) needs a non-empty "
                f"spec string, got {spec!r}"
            )
        try:
            parse_buffer_spec(spec)
        except TypeError:
            raise ValueError(
                f"typed_kernel() got unknown buffer spec {spec!r} for "
                f"parameter {name!r}"
            ) from None
    mutated = tuple(mutates)
    for name in mutated:
        if name not in normalized:
            raise ValueError(
                f"typed_kernel(mutates=...) names {name!r} which is not a "
                f"declared buffer parameter"
            )

    def decorate(func: Callable) -> Callable:
        signature = inspect.signature(func)
        for name in normalized:
            if name not in signature.parameters:
                raise ValueError(
                    f"typed_kernel() declares buffer {name!r} but "
                    f"{func.__qualname__} has no such parameter"
                )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            witness = type_witness()
            if witness is None:
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            witness.check_call(
                func.__qualname__, normalized, mutated, bound.arguments
            )
            result = func(*args, **kwargs)
            witness.check_result(func.__qualname__, result)
            return result

        wrapper.__typed_kernel__ = True
        wrapper.__typed_buffers__ = dict(normalized)
        wrapper.__typed_mutates__ = mutated
        return wrapper

    return decorate


def typed_buffers(func: Union[Callable, type]) -> Dict[str, str]:
    """The buffer specs ``func`` declares via ``@typed_kernel`` (or {})."""
    return dict(getattr(func, "__typed_buffers__", {}))
