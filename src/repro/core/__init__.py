"""Adaptive indexing core: cracking, adaptive merging and hybrids.

This package contains the paper's primary contribution area: the family of
adaptive indexing algorithms that refine physical design *as a side effect of
query execution*.

* :mod:`repro.core.cracking` — database cracking (selection cracking),
  stochastic cracking, cracking with updates, partial (storage-bounded)
  cracking and sideways cracking;
* :mod:`repro.core.merging` — adaptive merging over sorted runs
  (partitioned B-tree style);
* :mod:`repro.core.hybrids` — the hybrid algorithms of Idreos et al.
  (PVLDB 2011) that blend cracking-style and merging-style reorganisation;
* :mod:`repro.core.partitioned` — partitioned (and optionally parallel)
  cracking: contiguous shards cracked independently, with thread-pool
  fan-out for queries spanning several shards;
* :mod:`repro.core.strategies` — a uniform registry so that baselines and
  adaptive strategies are interchangeable in the engine and the benchmark
  (``create_strategy(name, values).search(low, high, counters)`` is the
  kernel-level way in).
"""

from repro.core.partitioned import (
    PartitionedCrackedColumn,
    PartitionedUpdatableCrackedColumn,
)
from repro.core.strategies import (
    SearchStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
)

__all__ = [
    "PartitionedCrackedColumn",
    "PartitionedUpdatableCrackedColumn",
    "SearchStrategy",
    "available_strategies",
    "create_strategy",
    "register_strategy",
]
