"""Non-adaptive indexing baselines: offline, online and soft indexes.

The EDBT 2012 tutorial positions adaptive indexing against the families of
prior work implemented here, so the experiments can compare against them:

* **Full (offline) indexes** — :class:`~repro.indexes.full_index.FullIndex`:
  the a-priori, fully built sorted representation that adaptive methods
  converge to.
* **Online tuning** — :class:`~repro.indexes.online_tuner.OnlineIndexTuner`:
  monitor the live workload and trigger index creation/drop when the
  observed benefit crosses a threshold (COLT-style).
* **Soft indexes** — :class:`~repro.indexes.soft_index.SoftIndexManager`:
  generate index recommendations during query processing and piggy-back the
  (non-incremental) index build on a qualifying scan.

All three are reachable as strategies (``full-index``, ``online``, ``soft``)
through :func:`repro.core.strategies.create_strategy`.
"""

from repro.indexes.full_index import FullIndex
from repro.indexes.online_tuner import OnlineIndexTuner
from repro.indexes.soft_index import SoftIndexManager

__all__ = [
    "FullIndex",
    "OnlineIndexTuner",
    "SoftIndexManager",
]
