"""The access-path contract every registered structure satisfies itself.

What the engine asks of an access path — answer a range or a batch of
ranges, say whether a read still reorganises it, answer a whole
select-project when it covers projections, absorb DML or be rebuilt, report
its bytes and structure, release resources — is :class:`SearchStrategy`,
a plain base class: every structure inherits it by name, so nothing checks
a path structurally.  This module imports none of the structures (they
import it, and :mod:`repro.core.strategies` imports them).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cost.counters import CostCounters


class SearchStrategy:
    """A range-search access path over one column."""

    #: True when the path absorbs inserts/deletes/updates adaptively
    #: (``insert``/``delete``/``update``, ``check_insertable`` for the
    #: engine to ask before it appends a row, and ``delete_base_rows`` for a
    #: new path to queue its table's tombstones in one call); the engine
    #: rebuilds a path that doesn't after DML against its table
    supports_updates: bool = False

    #: the planner's rank among one query's selections (lower drives the
    #: select, the others refine): 0 for an index that answers from its
    #: first query on, 1 for a tuner that scans until it decides to build
    #: (a column without any access path ranks 2); -1 for a path that
    #: covers the projection, which leads whatever else is indexed
    selection_priority: int = 0

    #: True when :meth:`select_project` answers a whole select-project from
    #: the path's own aligned copies; the planner then hands it the query's
    #: refinements and projections instead of planning them as steps
    covers_projection: bool = False

    #: True when :meth:`search` can still mutate physical state — the flag
    #: the session's lock protocol (:mod:`repro.engine.concurrency`)
    #: consults: a mutating path serializes concurrent selections, a
    #: read-only one is read without a lock.  Once False it stays False,
    #: and ``search`` has no side effects beyond lock-guarded statistics.
    #: No default (an annotation only): every structure declares it.
    reorganizes_on_read: bool

    #: queries answered so far, counted by the path itself
    queries_processed: int
    #: bytes of auxiliary structures the path holds
    nbytes: int
    #: one-line summary of the current physical state (for reports)
    structure_description: str

    def __len__(self) -> int:
        ...

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Positions (into the base column) of rows with ``low <= value < high``."""
        ...

    def search_many(
        self,
        ranges: Sequence[Tuple[Optional[float], Optional[float]]],
        counters_list: Sequence[Optional[CostCounters]],
    ) -> List[np.ndarray]:
        """``search(low, high, counters_list[i])`` for every range ``i`` of a
        batch, in order: answers, counters and the state left behind are
        those of the sequential calls.  A path that can crack a batch in one
        pass overrides this."""
        return [self.search(low, high, counters)
                for (low, high), counters in zip(ranges, counters_list)]

    def select_project(
        self,
        low: Optional[float],
        high: Optional[float],
        refinements: Mapping[str, Tuple[Optional[float], Optional[float]]],
        projections: Sequence[str],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Select on this column, refine on the owning table's other
        attributes (``refinements``: their half-open ranges), project
        ``projections``: ``(positions, columns)``, every array aligned with
        the positions.  Only a path declaring :attr:`covers_projection`
        implements this."""
        raise NotImplementedError(f"{type(self).__name__} does not cover projections")

    def close(self) -> None:
        """Release execution resources (thread pools, budgeted storage); the
        engine calls it whenever it drops or replaces the path."""
