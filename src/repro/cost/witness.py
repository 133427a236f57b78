"""Runtime cost-conformance witness.

The static analyzer (:mod:`repro.analysis_tools.reproperf`, rule PF003)
checks the ``@charges`` contracts lexically; the witness checks the cost
model *dynamically*, across every call boundary at once.  Around each query
the engine executes, the witness fingerprints the physical structures the
plan dispatches through (structure description, auxiliary bytes, row count)
and compares the fingerprints with the query's
:class:`~repro.cost.counters.CostCounters`:

* **free reorganization** — an access path changed physically while the
  query charged zero comparisons *and* zero tuple movements.  Adaptive
  indexing pays for reorganisation out of query work; a structural change
  with an empty bill means some kernel forgot to charge.
* **counter regression** — any counter is negative after the query.  The
  counters are monotone tallies; a negative value means a kernel
  *subtracted* work (or double-snapshotted), which silently corrupts every
  downstream experiment curve.

Off by default with zero overhead beyond one global read per query; enabled
by ``REPRO_COST_WITNESS=1`` (raise) / ``=log`` (warn only) or
programmatically via :func:`enable_cost_witness`.  The hook site is
``Database._execute_single``, which already runs under the session's path
locks, so fingerprints are race-free snapshots.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Iterable, List, Optional, Tuple

from repro.cost.counters import CostCounters

logger = logging.getLogger(__name__)

__all__ = [
    "CostConformanceViolation",
    "CostConformanceWitness",
    "cost_witness",
    "enable_cost_witness",
    "disable_cost_witness",
]


class CostConformanceViolation(RuntimeError):
    """A query's cost counters contradict the observed physical work."""


#: counter fields checked for regression (negative values)
_COUNTER_FIELDS = (
    "tuples_scanned",
    "tuples_moved",
    "comparisons",
    "random_accesses",
    "bytes_allocated",
    "pieces_created",
)


def _fingerprint(path: object) -> Optional[Tuple[str, int, int]]:
    """A cheap, comparable snapshot of an access path's physical state.

    ``(structure description, auxiliary bytes, row count)`` — any physical
    reorganisation the library performs (cracking a piece, merging a range,
    splitting a partition, rippling a pending update, a tuner building its
    index) changes at least one component.  Every installed access path is
    a :class:`~repro.core.strategies.SearchStrategy` and exposes all three;
    None stands for "no access path" (a plain scan has no auxiliary
    structure to fingerprint).
    """
    if path is None:
        return None
    return (path.structure_description, int(path.nbytes), len(path))


class CostConformanceWitness:
    """Compares per-query counters against observed structural change."""

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "log"):
            raise ValueError(f"witness mode must be 'raise' or 'log', got {mode!r}")
        self.mode = mode
        self._lock = threading.Lock()
        #: violation messages (also raised in ``raise`` mode)
        self._violations: List[str] = []
        self.queries_checked = 0

    # -- the two hook points ----------------------------------------------------

    def before(
        self, paths: Iterable[Tuple[str, str, object]]
    ) -> List[Tuple[str, object, Optional[Tuple[str, int, int]]]]:
        """Fingerprint every access path a plan dispatches through.

        ``paths`` yields ``(table, column, path_object)`` triples; the
        returned snapshot list is opaque to callers and fed back to
        :meth:`after`.
        """
        snapshots = []
        for table, column, path in paths:
            snapshots.append((f"{table}.{column}", path, _fingerprint(path)))
        return snapshots

    def after(
        self,
        description: str,
        snapshots: List[Tuple[str, object, Optional[Tuple[str, int, int]]]],
        counters: Optional[CostCounters],
    ) -> None:
        """Check the executed query's counters against the fresh fingerprints."""
        with self._lock:
            self.queries_checked += 1
        if counters is not None:
            negative = [
                (field, getattr(counters, field))
                for field in _COUNTER_FIELDS
                if getattr(counters, field) < 0
            ]
            if negative:
                detail = ", ".join(f"{name}={value}" for name, value in negative)
                self._report(
                    f"cost-conformance violation: counters regressed after "
                    f"query {description!r}: {detail} (counters are monotone "
                    f"tallies; a kernel subtracted work)"
                )
        paid = counters is None or (
            counters.comparisons > 0 or counters.tuples_moved > 0
        )
        if paid:
            return
        for key, path, before in snapshots:
            if before is None:
                continue
            after = _fingerprint(path)
            if after != before:
                self._report(
                    f"cost-conformance violation: access path {key} "
                    f"reorganized for free during query {description!r}: "
                    f"{before!r} -> {after!r} with zero comparisons and zero "
                    f"tuple movements charged (some kernel forgot its "
                    f"@charges bill)"
                )

    # -- reporting ---------------------------------------------------------------

    def violations(self) -> List[str]:
        """Messages recorded so far (useful in ``log`` mode)."""
        with self._lock:
            return list(self._violations)

    def _report(self, message: str) -> None:
        with self._lock:
            self._violations.append(message)
        if self.mode == "raise":
            raise CostConformanceViolation(message)
        logger.warning(message)


_WITNESS: Optional[CostConformanceWitness] = None


def cost_witness() -> Optional[CostConformanceWitness]:
    """The active witness, or None when witnessing is disabled."""
    return _WITNESS


def enable_cost_witness(mode: str = "raise") -> CostConformanceWitness:
    """Install (and return) a fresh witness; replaces any previous one."""
    global _WITNESS
    _WITNESS = CostConformanceWitness(mode)
    return _WITNESS


def disable_cost_witness() -> None:
    """Remove the active witness (the query hook reverts to a no-op)."""
    global _WITNESS
    _WITNESS = None


_env_witness = os.environ.get("REPRO_COST_WITNESS", "").strip().lower()
if _env_witness in {"1", "true", "raise", "strict"}:
    enable_cost_witness("raise")
elif _env_witness in {"log", "warn"}:
    enable_cost_witness("log")
del _env_witness
