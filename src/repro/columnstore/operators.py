"""Bulk aggregation over the values a plan's selection produced.

The engine's executor folds a query's selected values with
:func:`aggregate` and records the pass on the cost counters it was given.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cost.counters import CostCounters


#: the aggregates besides ``count``, each an ndarray method of that name
_METHODS = frozenset(("sum", "min", "max", "mean"))


def aggregate(
    values: np.ndarray,
    function: str,
    counters: Optional[CostCounters] = None,
) -> float:
    """Aggregate an array with one of sum/min/max/mean/count."""
    if counters is not None:
        counters.record_scan(len(values))
    if function == "count":
        return float(len(values))
    if len(values) == 0:
        raise ValueError(f"cannot compute {function!r} of an empty input")
    if function not in _METHODS:
        raise ValueError(
            f"unknown aggregate {function!r}; supported: count, sum, min, max, mean"
        )
    return float(getattr(values, function)())
