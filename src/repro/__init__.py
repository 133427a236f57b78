"""Adaptive indexing in modern database kernels — EDBT 2012 reproduction.

This package implements the full adaptive-indexing stack surveyed by the
EDBT 2012 tutorial *Adaptive Indexing in Modern Database Kernels* (Idreos,
Manegold, Graefe):

* a MonetDB-style column-store substrate (:mod:`repro.columnstore`),
* non-adaptive baselines: full indexes, online tuning and soft indexes
  (:mod:`repro.indexes`),
* the adaptive-indexing family: database cracking, cracking updates,
  partial and sideways cracking, stochastic cracking, adaptive merging and
  the hybrid algorithms (:mod:`repro.core`),
* a query engine entered through sessions (:mod:`repro.engine`), and
* workload generators plus the adaptive-indexing benchmark of Graefe et al.
  (:mod:`repro.workloads`).

Quickstart
----------

One column, at the kernel: any registered technique over an array.

>>> import numpy as np
>>> from repro import create_strategy
>>> from repro.cost.counters import CostCounters
>>> values = np.random.default_rng(0).integers(0, 10_000, size=100_000)
>>> index, counters = create_strategy("cracking", values), CostCounters()
>>> positions = index.search(1_000, 2_000, counters)   # crack as a side effect
>>> sorted(values[positions]) == sorted(v for v in values if 1_000 <= v < 2_000)
True

Tables, queries and updates: a :class:`Database` holds the schema and the
physical design (``set_indexing`` is the only switch) and a :class:`Session`
from ``db.session()`` is the only way operations enter it — see the README.
"""

from repro.core.strategies import available_strategies, create_strategy
from repro.durability.manager import DurabilityConfig
from repro.durability.recovery import RecoveryError, RecoveryReport
from repro.engine.database import Database
from repro.engine.query import Query, QueryBuilder
from repro.engine.session import Session
from repro.version import __version__

__all__ = [
    "Database",
    "DurabilityConfig",
    "Query",
    "QueryBuilder",
    "RecoveryError",
    "RecoveryReport",
    "Session",
    "available_strategies",
    "create_strategy",
    "__version__",
]
