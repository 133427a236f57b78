"""Runtime type-conformance witness for ``@typed_kernel`` boundaries.

When armed, each call to a
:func:`repro.analysis_tools.guards.typed_kernel`-decorated function
asserts, for every declared buffer argument:

* it is a 1-D, C-contiguous :class:`numpy.ndarray` (the layout every
  vectorized kernel assumes);
* its dtype conforms to the declared spec (``"numeric"`` accepts any
  integer/float dtype — the column dtype is workload-chosen — while an
  exact name like ``"int64"`` must match exactly) and is never ``object``
  (a boxed-element array silently de-vectorizes every operation on it);
* buffers the kernel declares it ``mutates`` are writeable (a read-only
  view reached a mutating kernel without ownership);

and, after the call, that no ``object``-dtype array escapes through the
return value (tuples/lists are walked one level deep) and that every
declared buffer *not* in ``mutates`` — each element of a ``*`` container
included — holds the bytes it held before the call: the witness keeps a
copy of each one, so an undeclared in-place write is caught wherever the
array came from.  (A read-only view would not do: a kernel may hand its
input back, and the view would leak into the caller's next kernel.)

Off by default with zero overhead beyond one global read per kernel call;
enabled by ``REPRO_TYPE_WITNESS=1`` or programmatically via
:func:`enable_type_witness`.  A violation raises
:class:`TypeConformanceViolation` (see
:mod:`repro.analysis_tools.witness` for the shared scaffold).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis_tools.witness import Witness

__all__ = [
    "TypeConformanceViolation",
    "TypeConformanceWitness",
    "type_witness",
    "enable_type_witness",
    "disable_type_witness",
    "parse_buffer_spec",
]


class TypeConformanceViolation(TypeError):
    """A typed-kernel call broke the declared buffer contract."""


#: dtype kind classes accepted for the spec bases that are not exact dtypes
_KIND_CLASSES = {
    "numeric": "iuf",  # any integer or float column dtype
    "integer": "iu",
    "float": "f",
}


def parse_buffer_spec(spec: str) -> Tuple[str, bool, bool]:
    """``"int64?*"`` -> ``("int64", optional=True, container=True)``.

    The base is either a dtype-kind class (``numeric``/``integer``/
    ``float``) or an exact numpy dtype name.  ``?`` allows None, ``*``
    declares a container (list/tuple) of buffers rather than one buffer.
    """
    base = spec
    optional = container = False
    while base and base[-1] in "?*":
        if base[-1] == "?":
            optional = True
        else:
            container = True
        base = base[:-1]
    if base not in _KIND_CLASSES:
        np.dtype(base)  # raises TypeError on an unknown dtype name
    return base, optional, container


def _dtype_conforms(dtype: np.dtype, base: str) -> bool:
    kinds = _KIND_CLASSES.get(base)
    if kinds is not None:
        return dtype.kind in kinds
    return dtype == np.dtype(base)


class TypeConformanceWitness(Witness):
    """Asserts the typed-buffer contract at every kernel call boundary."""

    violation = TypeConformanceViolation

    def __init__(self) -> None:
        super().__init__()
        self.calls_checked = 0

    # -- the two hook points ----------------------------------------------------

    def check_call(
        self,
        kernel: str,
        buffers: Mapping[str, str],
        mutates: Tuple[str, ...],
        bound: Mapping[str, object],
    ) -> List[Tuple[str, np.ndarray, bytes]]:
        """Check every declared buffer argument of one kernel call.

        Returns ``(name, buffer, its bytes)`` for every buffer outside
        ``mutates``, for :meth:`check_result` to compare after the call.
        """
        with self._lock:
            self.calls_checked += 1
        untouched: List[Tuple[str, np.ndarray, bytes]] = []
        for name, spec in buffers.items():
            if name not in bound:
                continue
            base, optional, container = parse_buffer_spec(spec)
            value = bound[name]
            if value is None:
                if not optional:
                    self._report(
                        f"type-conformance violation: {kernel}({name}=None) "
                        f"but spec {spec!r} does not allow None"
                    )
                continue
            if container:
                if isinstance(value, np.ndarray):
                    # the one-buffer shorthand every payload API accepts
                    elements = [value]
                elif isinstance(value, (list, tuple)):
                    elements = list(value)
                else:
                    self._report(
                        f"type-conformance violation: {kernel} buffer "
                        f"container {name!r} is {type(value).__name__}, "
                        f"expected a list/tuple of arrays (or one array)"
                    )
                    continue
            else:
                elements = [value]
            writeable_needed = name in mutates
            for element in elements:
                self._check_buffer(kernel, name, base, element, writeable_needed)
                if not writeable_needed:
                    untouched.append((name, element, element.tobytes()))
        return untouched

    def check_result(
        self,
        kernel: str,
        result: object,
        untouched: Sequence[Tuple[str, np.ndarray, bytes]] = (),
    ) -> None:
        """No object-dtype array may escape a typed kernel's return value,
        and no buffer outside ``mutates`` may have changed."""
        for name, buffer, before in untouched:
            if buffer.tobytes() != before:
                self._report(
                    f"type-conformance violation: {kernel} wrote buffer "
                    f"{name!r}, which it does not list in mutates="
                )
        values = (
            list(result) if isinstance(result, (tuple, list)) else [result]
        )
        for value in values:
            if isinstance(value, np.ndarray) and value.dtype.kind == "O":
                self._report(
                    f"type-conformance violation: {kernel} returned an "
                    f"object-dtype array — boxed elements escaped the "
                    f"typed-buffer boundary"
                )

    # -- internals ---------------------------------------------------------------

    def _check_buffer(
        self, kernel: str, name: str, base: str, value: object,
        writeable_needed: bool,
    ) -> None:
        if not isinstance(value, np.ndarray):
            self._report(
                f"type-conformance violation: {kernel} buffer {name!r} is "
                f"{type(value).__name__}, expected numpy.ndarray"
            )
            return
        if value.dtype.kind == "O":
            self._report(
                f"type-conformance violation: {kernel} buffer {name!r} has "
                f"object dtype — elements are boxed Python objects"
            )
            return
        if not _dtype_conforms(value.dtype, base):
            self._report(
                f"type-conformance violation: {kernel} buffer {name!r} has "
                f"dtype {value.dtype} but the kernel declares {base!r}"
            )
        if value.ndim != 1:
            self._report(
                f"type-conformance violation: {kernel} buffer {name!r} is "
                f"{value.ndim}-dimensional, kernels take flat buffers"
            )
        elif not value.flags.c_contiguous:
            self._report(
                f"type-conformance violation: {kernel} buffer {name!r} is "
                f"not C-contiguous — a strided view reached a kernel that "
                f"assumes dense layout"
            )
        if writeable_needed and not value.flags.writeable:
            self._report(
                f"type-conformance violation: {kernel} mutates buffer "
                f"{name!r} but the array is read-only — a shared view "
                f"reached a mutating kernel without ownership"
            )


_WITNESS: Optional[TypeConformanceWitness] = None


def type_witness() -> Optional[TypeConformanceWitness]:
    """The active witness, or None when witnessing is disabled."""
    return _WITNESS


enable_type_witness = TypeConformanceWitness.enable
disable_type_witness = TypeConformanceWitness.disable
TypeConformanceWitness.enable_from_environment("REPRO_TYPE_WITNESS")
