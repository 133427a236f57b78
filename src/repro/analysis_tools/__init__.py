"""Repo-specific software-engineering tooling for the adaptive-indexing kernel.

Adaptive indexing makes *reads* mutate physical state — every query cracks
or merges the store — so the engine's correctness hinges on a lock
discipline and a cost model that are easy to break silently (see
``docs/CONCURRENCY.md`` and ``docs/PERFORMANCE.md``).  This package
machine-checks both once so every future PR inherits them, one module per
decision:

* :mod:`repro.analysis_tools.guards` — what a contract is: the
  ``@guarded_by`` / ``@charges`` / ``@typed_kernel`` declarations and the
  engine's lock order (``LOCK_ORDER``), readable at runtime and statically;
* :mod:`repro.analysis_tools.common` — how a contract is checked
  statically: the one analyzer driver (files → ``ast`` → rules → inline
  suppressions → baseline → text/JSON report → exit status);
* :mod:`~repro.analysis_tools.reprolint` (concurrency invariants, RL001,
  RL002, RL004, RL005) and :mod:`~repro.analysis_tools.reproperf` (the
  kernels: hot loops and ``@charges`` soundness, PF001–PF005, and the
  ``@typed_kernel`` contract, TB001–TB005) — the rules.  ``python -m
  repro lint`` runs both; ``python -m repro.analysis_tools.<tool>`` runs
  one;
* :mod:`repro.analysis_tools.witness` — how a contract is checked at run
  time: the scaffold of the three witnesses, which live with the code they
  watch (:mod:`repro.engine.concurrency`, :mod:`repro.cost.witness`,
  :mod:`repro.analysis_tools.type_witness`) and are armed by
  ``REPRO_LOCK_WITNESS=1`` / ``REPRO_COST_WITNESS=1`` /
  ``REPRO_TYPE_WITNESS=1``.

The style gate (unused imports, undefined names, mutable defaults) is
``ruff check`` over the rules in ``ruff.toml``.
"""

from repro.analysis_tools.guards import charges, guarded_by

__all__ = ["charges", "guarded_by"]
