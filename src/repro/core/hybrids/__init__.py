"""Hybrid adaptive indexing (Idreos, Manegold, Kuno, Graefe; PVLDB 2011).

Database cracking and adaptive merging sit at two ends of a spectrum:
cracking does almost no work per query (great first query, slow
convergence), adaptive merging does a lot (expensive first queries, fast
convergence).  The hybrid algorithms explore the space in between by
choosing, independently, how much structure to impose on

* the **initial partitions** the column is split into on the first query
  (``crack`` = none, organised lazily by cracking; ``sort`` = fully sorted
  runs), and
* the **final partition** that qualifying tuples are moved into
  (``crack`` = value-disjoint pieces cracked further on demand;
  ``sort`` = every merged piece is sorted on arrival).

The canonical algorithms are named by those two choices: hybrid crack-crack
(HCC), crack-sort (HCS) and sort-sort (HSS ≈ adaptive merging in main
memory).
"""

from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.hybrids.initial_partitions import CrackedInitialPartition
from repro.core.hybrids.final_partition import FinalPartition

__all__ = [
    "HybridIndex",
    "CrackedInitialPartition",
    "FinalPartition",
]
