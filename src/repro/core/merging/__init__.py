"""Adaptive merging (Graefe & Kuno, SMDB/EDBT 2010).

Adaptive merging follows the same continuous-adaptation principle as
database cracking but reacts *more actively*: the first query partitions the
column into sorted runs (cheap, sequential, partitioned-B-tree style); every
subsequent query extracts its qualifying key range from all runs and merges
it into a final, fully optimised partition.  Key ranges never queried are
never merged; key ranges already merged are served at full-index cost with
no further overhead.  The more-active reorganisation converges to the full
index in far fewer queries than cracking, at the price of more expensive
early queries — the trade-off the hybrid algorithms then explore.

Modules
-------
``intervals``
    Bookkeeping of which key ranges have been fully merged, and where.
``runs``
    :class:`RunSet`: sorted run creation and batched range extraction.
``adaptive_merge``
    :class:`AdaptiveMergingIndex`: the adaptive select operator.
"""

from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.core.merging.intervals import IntervalSet
from repro.core.merging.runs import RunSet

__all__ = [
    "AdaptiveMergingIndex",
    "IntervalSet",
    "RunSet",
]
