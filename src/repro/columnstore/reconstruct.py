"""Late tuple reconstruction.

Column-stores answer multi-attribute queries by stitching columns back
together.  *Late* reconstruction carries position lists through the plan and
fetches payload columns only at the end.  Sideways cracking (Idreos et al.,
SIGMOD 2009) exists precisely because late reconstruction over cracked
columns degenerates into random access; :func:`late_reconstruct` is the
baseline it is compared with.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.columnstore.table import Table
from repro.cost.counters import CostCounters


def late_reconstruct(
    table: Table,
    positions: np.ndarray,
    column_names: Iterable[str],
    counters: Optional[CostCounters] = None,
) -> Dict[str, np.ndarray]:
    """Fetch ``column_names`` for ``positions`` via positional gathers.

    Every column fetch is a random-access gather: cheap when positions are
    clustered (e.g. after cracking the projection columns sideways), very
    expensive when positions are scattered over a large column.
    """
    positions = np.asarray(positions, dtype=np.int64)
    return {name: fetch_column(table, positions, name, counters)
            for name in column_names}


def fetch_column(
    table: Table,
    positions: np.ndarray,
    name: str,
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """One column of :func:`late_reconstruct`: ``name``'s values at the
    int64 ``positions``, charged as that many random accesses."""
    if counters is not None:
        counters.record_random_access(len(positions))
    return table.column(name).values[positions]
