"""Repo-specific software-engineering tooling for the adaptive-indexing kernel.

Adaptive indexing makes *reads* mutate physical state — every query cracks
or merges the store — so the engine's correctness hinges on a lock
discipline and a cost model that are easy to break silently (see
``docs/CONCURRENCY.md`` and ``docs/PERFORMANCE.md``).  This package
machine-checks what no test can replace, one module per decision:

* :mod:`repro.analysis_tools.guards` — what a contract is: the
  ``@guarded_by`` / ``@typed_kernel`` declarations and the engine's lock
  order (``LOCK_ORDER``), readable at runtime and statically;
* :mod:`repro.analysis_tools.common` — how a contract is checked
  statically: the finding record and the driver (files → ``ast`` → rules
  → reasoned inline suppressions);
* :mod:`~repro.analysis_tools.reprolint` — the one static analyzer: the
  concurrency invariants RL001, RL002, RL004 and RL005, its text/JSON
  report and exit status; ``python -m repro lint`` runs it;
* :mod:`repro.analysis_tools.witness` — how a contract is checked at run
  time: the scaffold of the three witnesses, which live with the code they
  watch (:mod:`repro.engine.concurrency`, :mod:`repro.cost.witness`,
  :mod:`repro.analysis_tools.type_witness`) and are armed by
  ``REPRO_LOCK_WITNESS=1`` / ``REPRO_COST_WITNESS=1`` /
  ``REPRO_TYPE_WITNESS=1``.

The cost model itself is pinned by exact counters (the golden-counter
literals and ``FIGURES.json``), not by an analyzer.  The style gate (unused
imports, undefined names, mutable defaults) is ``ruff check`` over the
rules in ``ruff.toml``.
"""

from repro.analysis_tools.guards import guarded_by

__all__ = ["guarded_by"]
