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
* :mod:`repro.core.access_path` — the access-path contract
  (:class:`SearchStrategy`) every registered structure satisfies itself;
* :mod:`repro.core.strategies` — the one registry table naming those
  structures, so that baselines and adaptive structures are
  interchangeable in the engine and the benchmark
  (``create_strategy(name, values).search(low, high, counters)`` is the
  kernel-level way in).
"""

from repro.core.partitioned import (
    PartitionedCrackedColumn,
    PartitionedUpdatableCrackedColumn,
)
from repro.core.access_path import SearchStrategy
from repro.core.strategies import available_strategies, create_strategy

__all__ = [
    "PartitionedCrackedColumn",
    "PartitionedUpdatableCrackedColumn",
    "SearchStrategy",
    "available_strategies",
    "create_strategy",
]
