"""Bulk select operators (scan-based selection).

Selection in a column-store is a bulk operation: a predicate is applied to an
entire column (or to an intermediate candidate list) at once and the result
is a position list.  These operators are the non-adaptive baseline that a
plain scan-based system uses for every query, and the building block that
the adaptive strategies are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.columnstore.bulk import filter_range, range_mask
from repro.columnstore.column import Column
from repro.cost.counters import CostCounters


@dataclass(frozen=True)
class RangePredicate:
    """Half-open range predicate ``low <= value < high``.

    Either bound may be ``None`` (unbounded).  With bounds of the column's
    type (:func:`repro.columnstore.types.exact_bounds`) the half-open form
    expresses every closed or open range.
    """

    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if self.low is not None and self.high is not None and self.high < self.low:
            raise ValueError(f"empty predicate: high ({self.high}) < low ({self.low})")

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values satisfying the predicate (no cost recorded)."""
        return range_mask(values, self.low, self.high)


def scan_select(
    column: Union[Column, np.ndarray],
    predicate: RangePredicate,
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """Full-column scan returning the positions satisfying ``predicate``.

    This is the cost every query pays when no index exists: the entire
    column is read and compared.
    """
    values = column.values if isinstance(column, Column) else np.asarray(column)
    return filter_range(values, predicate.low, predicate.high, counters)


def refine_select(
    column: Union[Column, np.ndarray],
    candidate_positions: np.ndarray,
    predicate: RangePredicate,
    counters: Optional[CostCounters] = None,
) -> np.ndarray:
    """Apply ``predicate`` only to the rows in ``candidate_positions``.

    Used for conjunctive multi-column selections under late materialisation:
    the first column produces a candidate list, subsequent columns refine it
    by gathering only the candidate rows.
    """
    values = column.values if isinstance(column, Column) else np.asarray(column)
    candidate_positions = np.asarray(candidate_positions, dtype=np.int64)
    fetched = values[candidate_positions]
    if counters is not None:
        counters.record_random_access(len(candidate_positions))
        counters.record_comparisons(len(candidate_positions))
    mask = predicate.matches(fetched)
    return candidate_positions[mask]
