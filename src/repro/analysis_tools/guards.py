"""Structured invariant declarations: ``@guarded_by``, ``@typed_kernel``
and the lock order.

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
        _pool="_pool_lock",
        queries_processed="_stats_lock",
    )
    class PartitionedCrackedColumn:
        ...

``@typed_kernel`` declares which parameters of a kernel are flat numpy
buffers (and their dtype contract) and which of them it writes in place, so
the :class:`~repro.analysis_tools.type_witness.TypeConformanceWitness` can
check dtype, contiguity, ownership and the absence of object escapes at the
call boundary::

    @typed_kernel(buffers={"segment": "numeric", "rowids": "int64",
                           "payload": "numeric*"},
                  mutates=("segment", "rowids", "payload"))
    def partition_two_way(segment, rowids, pivot, counters, payload=None):
        ...

Buffer specs are dtype names (``"int64"``) or kind classes (``"numeric"``
= any int/float column dtype); a ``?`` suffix allows None, a ``*`` suffix
declares a list/tuple of buffers.  ``mutates`` names the buffers the
kernel writes in place; the armed witness reports a write to any other
declared buffer.

``@guarded_by`` has no runtime enforcement: the point is a single,
checkable source of truth, not per-access overhead on hot paths.
``@typed_kernel`` follows the same philosophy — its wrapper is one global
read per call — unless the type witness is armed (``REPRO_TYPE_WITNESS=1``),
when every declared buffer is checked.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, Sequence, Tuple, Type, TypeVar, Union

from repro.analysis_tools.type_witness import parse_buffer_spec, type_witness

T = TypeVar("T")

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


def typed_kernel(
    *, buffers: Dict[str, str], mutates: Sequence[str] = ()
) -> Callable[[Callable], Callable]:
    """Declare which parameters of a kernel are flat numpy buffers.

    ``buffers`` maps parameter names to buffer specs.  A spec is a dtype
    name (``"int64"``, ``"float64"``) or a kind class (``"numeric"`` = any
    integer/float dtype, ``"integer"``, ``"float"``) plus optional
    suffixes: ``?`` allows None, ``*`` declares a list/tuple of buffers
    (e.g. a payload-column container).  ``mutates`` names the declared
    buffers the kernel writes in place.

    The declaration is attached as ``__typed_buffers__`` /
    ``__typed_mutates__`` / ``__typed_kernel__`` for introspection.  At
    runtime the wrapper costs one module-global read per call; when the
    :mod:`~repro.analysis_tools.type_witness` is armed it checks every
    declared buffer (dtype, 1-D, contiguity, writeability for mutated
    buffers), the return value (no object-dtype escape) and that no buffer
    outside ``mutates`` changed during the call.
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
            untouched = witness.check_call(
                func.__qualname__, normalized, mutated, bound.arguments
            )
            result = func(*args, **kwargs)
            witness.check_result(func.__qualname__, result, untouched)
            return result

        wrapper.__typed_kernel__ = True
        wrapper.__typed_buffers__ = dict(normalized)
        wrapper.__typed_mutates__ = mutated
        return wrapper

    return decorate


def typed_buffers(func: Union[Callable, type]) -> Dict[str, str]:
    """The buffer specs ``func`` declares via ``@typed_kernel`` (or {})."""
    return dict(getattr(func, "__typed_buffers__", {}))
