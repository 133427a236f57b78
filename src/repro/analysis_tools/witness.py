"""The scaffold the three runtime witnesses share.

A witness checks, while the program runs, a contract the static analyzers
can only check lexically: the lock order
(:class:`repro.engine.concurrency.LockOrderWitness`), the cost model
(:class:`repro.cost.witness.CostConformanceWitness`) and the typed-buffer
boundary (:class:`repro.analysis_tools.type_witness.TypeConformanceWitness`).
Each lives in the module it watches and keeps only its checks and its own
violation class; what they have in common is here: a violation is recorded,
then raised — a witness is armed to fail the offending test directly.

Arming is per module and the same everywhere: the module that defines a
witness class keeps a global ``_WITNESS`` that is None unless
:meth:`Witness.enable` installed an instance there — called by the module's
``enable_*_witness`` name, or at import when its ``REPRO_*_WITNESS``
variable is ``1``/``true``.  Hook sites read that global once and do nothing
else while it is None.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import List, Type


class Witness:
    """Records every violation of one runtime contract, then raises it."""

    #: the exception a violation raises; each witness sets its own class
    violation: Type[Exception]

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._violations: List[str] = []

    def violations(self) -> List[str]:
        """Messages of every violation reported so far."""
        with self._lock:
            return list(self._violations)

    def _report(self, message: str) -> None:
        with self._lock:
            self._violations.append(message)
        raise self.violation(message)

    # -- arming: the ``_WITNESS`` global of the module that defines ``cls`` -------

    @classmethod
    def enable(cls):
        """Install (and return) a fresh witness; replaces any previous one."""
        witness = sys.modules[cls.__module__]._WITNESS = cls()
        return witness

    @classmethod
    def disable(cls) -> None:
        """Remove the active witness (hook sites revert to their no-op)."""
        sys.modules[cls.__module__]._WITNESS = None

    @classmethod
    def enable_from_environment(cls, variable: str) -> None:
        """Arm at import when ``variable`` is ``1`` or ``true`` (any case)."""
        if os.environ.get(variable, "").strip().lower() in {"1", "true"}:
            cls.enable()
