"""Runtime cost-conformance witness.

The exact counters are pinned per kernel by the golden-counter literals and
``FIGURES.json``; the witness checks the cost model *dynamically*, across
every call boundary at once, on any query stream.  Around each query
the engine executes, the witness fingerprints the physical structures the
plan dispatches through (structure description, auxiliary bytes, row count)
and compares the fingerprints with the query's
:class:`~repro.cost.counters.CostCounters`:

* **free reorganization** — an access path changed physically while the
  query charged zero comparisons *and* zero tuple movements.  Adaptive
  indexing pays for reorganisation out of query work; a structural change
  with an empty bill means some kernel forgot to charge.  A first build is
  not a reorganisation: a path holding no auxiliary bytes that comes to
  hold some, with the same description and row count (an updatable
  column's copy, which no operation is charged for), had nothing to
  reorganise.
* **counter regression** — any counter is negative after the query.  The
  counters are monotone tallies; a negative value means a kernel
  *subtracted* work (or double-snapshotted), which silently corrupts every
  downstream experiment curve.

Off by default with zero overhead beyond one global read per query; enabled
by ``REPRO_COST_WITNESS=1`` or programmatically via
:func:`enable_cost_witness`.  A violation raises
:class:`CostConformanceViolation` (see :mod:`repro.analysis_tools.witness`
for the shared scaffold).  The hook sites are in the session's one query
path, which runs every query, a lone one included, as a batch under the
plans' path locks, so fingerprints are race-free snapshots:
``Session._execute_locked`` brackets each query, and
``Session._batch_selections`` each ``search_many`` pass of a batch.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.analysis_tools.witness import Witness
from repro.cost.counters import CostCounters

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
    a structure satisfying :class:`~repro.core.access_path.SearchStrategy`
    and exposes all three;
    None stands for "no access path" (a plain scan has no auxiliary
    structure to fingerprint).
    """
    if path is None:
        return None
    return (path.structure_description, int(path.nbytes), len(path))


def _first_build(before: Tuple[str, int, int], after: Tuple[str, int, int]) -> bool:
    """Whether the only change is auxiliary bytes going from none to some."""
    return before[1] == 0 and (before[0], before[2]) == (after[0], after[2])


class CostConformanceWitness(Witness):
    """Compares per-query counters against observed structural change."""

    violation = CostConformanceViolation

    def __init__(self) -> None:
        super().__init__()
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
            if after != before and not _first_build(before, after):
                self._report(
                    f"cost-conformance violation: access path {key} "
                    f"reorganized for free during query {description!r}: "
                    f"{before!r} -> {after!r} with zero comparisons and zero "
                    f"tuple movements charged (some kernel forgot to "
                    f"charge its work)"
                )


_WITNESS: Optional[CostConformanceWitness] = None


def cost_witness() -> Optional[CostConformanceWitness]:
    """The active witness, or None when witnessing is disabled."""
    return _WITNESS


enable_cost_witness = CostConformanceWitness.enable
disable_cost_witness = CostConformanceWitness.disable
CostConformanceWitness.enable_from_environment("REPRO_COST_WITNESS")
