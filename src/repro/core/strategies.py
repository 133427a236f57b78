"""The one registry: which access path a name builds, with which options.

Every registered structure — from plain scans and full indexes over the
tuners to the cracking family, adaptive merging and the hybrids — satisfies
the access-path contract (:class:`~repro.core.access_path.SearchStrategy`)
itself, so :func:`create_strategy` returns the structure.  This module is
the only place that knows which structure is behind a name: one table,
name → (factory, accepted option names, carry step).  A name fixes what it
names, so its options only tune that structure.  ``scan`` and
``sort-first`` (no structure exists) and the two tuners (whose API spans
many columns) keep a small class here.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.column import Column
from repro.columnstore.select import RangePredicate, scan_select
from repro.columnstore.storage import StorageBudget
from repro.columnstore.table import Table
from repro.columnstore.types import exact_type
from repro.core.access_path import SearchStrategy
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.partial import PartialCrackedColumn
from repro.core.cracking.sideways import SidewaysCracker
from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.core.partitioned import PartitionedCrackedColumn
from repro.indexes.full_index import FullIndex
from repro.indexes.online_tuner import OnlineIndexTuner
from repro.indexes.soft_index import SoftIndexManager


def _as_column(column: Union[Column, np.ndarray], name: str = "value") -> Column:
    """``column``, or a bare array as a column named ``name`` of its dtype."""
    if isinstance(column, Column):
        return column
    array = np.asarray(column)
    return Column(array, name=name, dtype=exact_type(array.dtype))


@guarded_by(queries_processed="_stats_lock")
class ScanColumn(SearchStrategy):
    """Baseline: answer every query with a full scan, never build anything."""

    #: a scan reads the base column and builds nothing: pure reader
    reorganizes_on_read = False
    nbytes = 0
    label = "scan"

    def __init__(self, column: Union[Column, np.ndarray]) -> None:
        self._array = column.values if isinstance(column, Column) else np.asarray(column)
        self.queries_processed = 0
        # scans serve concurrent readers, whose increments must not be lost
        self._stats_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._array)

    def search(self, low, high, counters=None):
        with self._stats_lock:
            self.queries_processed += 1
        return self._answer(low, high, counters)

    def _answer(self, low, high, counters):
        return scan_select(self._array, RangePredicate(low, high), counters)

    @property
    def structure_description(self) -> str:
        return f"{self.label} over {len(self)} rows"


class SortFirstColumn(ScanColumn):
    """Baseline: the first query builds the full index (sort-first), paying
    the entire sort; every later query runs at full index cost."""

    label = "sort-first"

    def __init__(self, column: Union[Column, np.ndarray]) -> None:
        super().__init__(column)
        self.index: Optional[FullIndex] = None

    @property
    def reorganizes_on_read(self) -> bool:  # until the first query built the index
        return self.index is None

    def _answer(self, low, high, counters):
        if self.index is None:
            self.index = FullIndex(self._array, counters=counters)
        return self.index.lookup(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.index.nbytes if self.index is not None else 0


class TunedColumn(SearchStrategy):
    """A monitor-and-tune select operator (online tuning, soft indexes)
    bound to one column: the tuner keys its statistics and indexes by
    column name, and an index it built stays until the column is rebuilt."""

    #: every select updates the monitoring statistics and may build the index
    reorganizes_on_read = True
    selection_priority = 1

    def __init__(self, column: Union[Column, np.ndarray], tuner, template: str) -> None:
        self._column = _as_column(column)
        self.tuner = tuner
        self._template = template  # words the built indexes, and only them

    def __len__(self) -> int:
        return len(self._column)

    def search(self, low, high, counters=None):
        return self.tuner.select(self._column, RangePredicate(low, high), counters)

    @property
    def nbytes(self) -> int:
        return sum(index.nbytes for index in self.tuner.indexes.values())

    @property
    def structure_description(self) -> str:
        return self._template.format(len(self.tuner.indexes))


def _over(structure: Callable[..., SearchStrategy], **fixed) -> Callable[..., SearchStrategy]:
    """A factory of ``structure`` over the column, ``fixed`` beside the options."""
    return lambda column, table, **options: structure(column, **fixed, **options)


def _tuned(tuner_class: Callable[..., object], template: str) -> Callable[..., SearchStrategy]:
    return lambda column, table, **options: TunedColumn(column, tuner_class(**options), template)


def _sideways(column, table: Optional[Table], budget_bytes=None) -> SidewaysCracker:
    """The column heads cracker maps over its table (a bare array: its own)."""
    head = (column.name if isinstance(column, Column) else "") or "value"
    if table is None:
        array = column.values if isinstance(column, Column) else column
        table = Table(head, {head: _as_column(array, head)})
    return SidewaysCracker(table, head, budget=StorageBudget(limit_bytes=budget_bytes))


def _partial(column, table, budget_bytes=None, **options) -> PartialCrackedColumn:
    return PartialCrackedColumn(column, budget=StorageBudget(limit_bytes=budget_bytes), **options)


def _keep_crack_history(old: SidewaysCracker, fresh: SidewaysCracker) -> None:
    """DML drops every map (a copy of a table column); each replays the
    crack history when a query next materialises it."""
    fresh.crack_history = old.crack_history


def _keep_statistics(old: TunedColumn, fresh: TunedColumn) -> None:
    """Keep the monitoring statistics, drop the built index (rebuilt on demand)."""
    old.tuner.indexes.clear()
    fresh.tuner = old.tuner


class _Row(NamedTuple):
    """``factory(column, table, **options)`` builds the path; ``options`` is
    every option it takes (any other is refused before anything is built,
    so none that does nothing is journaled); ``carry(old, fresh)`` is what
    a rebuild after DML keeps."""

    factory: Callable[..., SearchStrategy]
    options: Tuple[str, ...] = ()
    carry: Callable[[SearchStrategy, SearchStrategy], None] = lambda old, fresh: None


_UPDATES = ("policy", "merge_batch")
_PARTITIONS = ("partitions", "parallel", "max_workers")
_ONLINE = _tuned(OnlineIndexTuner, "online tuner ({} indexes built)")
_SOFT = _tuned(SoftIndexManager, "soft indexes ({} built)")

#: Every cracking name builds its cracker column on first use;
#: ``updatable-cracking`` charges that copy to no operation, the read-only
#: names to the first query that touches it.
_REGISTRY: Dict[str, _Row] = {
    "scan": _Row(_over(ScanColumn)),
    "full-index": _Row(_over(FullIndex)),
    "sort-first": _Row(_over(SortFirstColumn)),
    "online": _Row(_ONLINE, ("build_threshold_factor",), _keep_statistics),
    "soft": _Row(_SOFT, ("recommendation_threshold",), _keep_statistics),
    "cracking": _Row(_over(CrackedColumn)),
    "updatable-cracking": _Row(_over(CrackedColumn, supports_updates=True), _UPDATES),
    "partitioned-cracking": _Row(_over(PartitionedCrackedColumn), _PARTITIONS),
    "stochastic-cracking": _Row(_over(StochasticCrackedColumn), ("variant", "seed")),
    "sideways-cracking": _Row(_sideways, ("budget_bytes",), _keep_crack_history),
    "partial-cracking": _Row(_partial, ("budget_bytes", "fragments")),
    "adaptive-merging": _Row(_over(AdaptiveMergingIndex), ("run_size",)),
    "hybrid-crack-crack": _Row(_over(HybridIndex, initial_mode="crack", final_mode="crack")),
    "hybrid-crack-sort": _Row(_over(HybridIndex, initial_mode="crack", final_mode="sort")),
    "hybrid-sort-sort": _Row(_over(HybridIndex, initial_mode="sort", final_mode="sort")),
}


def available_strategies() -> List[str]:
    """Names of all registered strategies, sorted."""
    return sorted(_REGISTRY)


def accepted_options(name: str) -> Tuple[str, ...]:
    """Every option the strategy registered under ``name`` takes."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown strategy {name!r}; available: {available_strategies()}")
    return _REGISTRY[name].options


def check_options(name: str, options: Mapping[str, object]) -> None:
    """Refuse any option ``name`` does not take, before anything is built."""
    accepted = accepted_options(name)
    unknown = sorted(set(options).difference(accepted))
    if unknown:
        raise ValueError(
            f"{name!r} takes no option {', '.join(map(repr, unknown))}; "
            f"its options are {list(accepted)}"
        )


def create_strategy(name: str, column: Union[Column, np.ndarray],
                    table: Optional[Table] = None, **options) -> SearchStrategy:
    """The access path registered under ``name`` over ``column``.  ``table``
    owns the column: context for the paths that read sibling attributes,
    deliberately not an option (options are journaled)."""
    check_options(name, options)
    return _REGISTRY[name].factory(column, table, **options)


def rebuild(name: str, path: SearchStrategy, column: Union[Column, np.ndarray],
            table: Optional[Table] = None, **options) -> SearchStrategy:
    """The access path to install after DML ``path`` cannot absorb: a fresh
    ``name`` path over the changed ``column`` with the recorded options,
    plus what the name's carry step keeps of ``path``.  The caller closes
    the old path."""
    fresh = create_strategy(name, column, table=table, **options)
    _REGISTRY[name].carry(path, fresh)
    return fresh
