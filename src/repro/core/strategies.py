"""Uniform strategy registry over baselines and adaptive indexes.

The adaptive-indexing benchmark compares a wide spectrum of techniques —
plain scans, a-priori full indexes, sort-on-first-query, database cracking
and its variants, adaptive merging and the hybrids.  To keep the engine and
the benchmark harness agnostic of which technique is in use, every technique
is wrapped as a :class:`SearchStrategy`: construct it over a column, then
call :meth:`SearchStrategy.search` for each range query.

This module is the only place that knows which technique is behind a name.
What an access path can do — answer a range, say whether a read still
reorganises it, answer a whole select-project when it covers projections,
absorb DML or ask to be rebuilt, report its bytes and structure, release
resources — is the :class:`SearchStrategy` contract, and
the engine installs, queries, updates and drops every access path through
that contract alone.

New strategies can be plugged in with :func:`register_strategy`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.column import Column
from repro.columnstore.select import RangePredicate, scan_select
from repro.columnstore.storage import StorageBudget
from repro.columnstore.table import Table
from repro.columnstore.types import exact_type
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.partial import PartialCrackedColumn
from repro.core.cracking.sideways import SidewaysCracker
from repro.core.cracking.stochastic import StochasticCrackedColumn
from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.partitioned import PartitionedCrackedColumn
from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.cost.counters import CostCounters
from repro.indexes.full_index import FullIndex
from repro.indexes.online_tuner import OnlineIndexTuner
from repro.indexes.soft_index import SoftIndexManager


def _as_array(column: Union[Column, np.ndarray]) -> np.ndarray:
    return column.values if isinstance(column, Column) else np.asarray(column)


def _given(options: Mapping[str, object], keys: Sequence[str]) -> Dict[str, object]:
    """The entries of ``options`` under ``keys`` that the caller supplied:
    only those are forwarded, so the wrapped structures' own defaults cover
    the rest."""
    return {key: options[key] for key in keys if key in options}


def _counted_by(attribute: str) -> property:
    """``queries_processed`` of a strategy that forwards every search to the
    structure under ``attribute``: that structure counts its own searches
    (under its own lock where readers can be concurrent), so the strategy
    reports its count instead of keeping a second one."""
    return property(lambda self: getattr(self, attribute).queries_processed)


@guarded_by(queries_processed="_stats_lock")
class SearchStrategy(ABC):
    """A named range-search technique over one column."""

    #: registry name; subclasses set this
    name: str = ""

    #: True when the strategy absorbs inserts/deletes/updates adaptively
    #: (exposes ``insert``/``delete``/``update``, and ``check_insertable``
    #: for the engine to ask before it appends a row); the engine rebuilds
    #: strategies that don't after DML against their table.
    supports_updates: bool = False

    #: the planner's rank among one query's selections (lower drives the
    #: select, the others refine): 0 for an index that answers from its
    #: first query on, 1 for a tuner that scans until it decides to build
    #: (a column without any access path ranks 2); -1 for a path that
    #: covers the projection, which leads whatever else is indexed
    selection_priority: int = 0

    #: True when :meth:`select_project` answers a whole select-project —
    #: the other predicates and the projected attributes included — from
    #: the path's own aligned copies; the planner then hands it the query's
    #: refinements and projections instead of planning them as steps
    covers_projection: bool = False

    #: queries answered so far.  One owner per fact: the strategies that
    #: wrap nothing that counts bump this through :meth:`note_query`; one
    #: that forwards to a counting structure reports that structure's count
    #: read-only (:func:`_counted_by`)
    queries_processed: int = 0

    #: every option the strategy takes (those its registrations fix
    #: included); the constructor refuses any other, so an option that does
    #: nothing is never kept in ``options`` and journaled
    option_names: Tuple[str, ...] = ()

    def __init__(
        self, column: Union[Column, np.ndarray], table: Optional[Table] = None, **options
    ) -> None:
        unknown = sorted(set(options).difference(self.option_names))
        if unknown:
            raise ValueError(
                f"{self.name!r} takes no option {', '.join(map(repr, unknown))}; "
                f"its options are {list(self.option_names)}"
            )
        self._column = column
        self._array = _as_array(column)
        #: the table owning ``column`` — construction context handed over
        #: by ``Database.set_indexing`` for the paths that read the sibling
        #: attributes; deliberately not an option (options are journaled)
        self._table = table
        #: the caller's options, every one of them in :attr:`option_names`
        self.options = options
        self._stats_lock = threading.Lock()

    @property
    def reorganizes_on_read(self) -> bool:
        """True when :meth:`search` can still mutate physical state.

        This is the capability flag the batch scheduler
        (:mod:`repro.engine.concurrency`) consults: a strategy that
        reorganises on read (cracking, merging, pending-update absorption)
        must serialize concurrent selections per access path, while a
        read-only strategy (a scan, a built full index, a converged
        adaptive structure) fans out freely.  The base class answers True —
        the conservative default for any adaptive technique; subclasses
        that are (or become) pure readers override it.  Once a strategy
        reports False it must keep reporting False, and its ``search`` must
        be free of side effects beyond lock-guarded statistics.
        """
        return True

    def note_query(self) -> None:
        """Thread-safely count one processed query.

        Read-only strategies serve concurrent readers; a bare ``+= 1`` on
        the shared counter could lose increments between threads.
        """
        with self._stats_lock:
            self.queries_processed += 1

    def __len__(self) -> int:
        return len(self._array)

    @abstractmethod
    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Positions (into the base column) of rows with ``low <= value < high``."""

    def select_project(
        self,
        low: Optional[float],
        high: Optional[float],
        refinements: Mapping[str, Tuple[Optional[float], Optional[float]]],
        projections: Sequence[str],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Select on this column, refine, project: ``(positions, columns)``.

        ``refinements`` maps the owning table's other selection attributes
        to their half-open ranges, ``projections`` names the attributes to
        return; every returned array is aligned with the positions.  Only
        a strategy declaring :attr:`covers_projection` implements this.
        """
        raise NotImplementedError(f"{self.name} does not cover projections")

    @property
    def nbytes(self) -> int:
        """Bytes of auxiliary structures held by the strategy (0 by default)."""
        return 0

    @property
    def structure_description(self) -> str:
        """One-line summary of the current physical state (for reports)."""
        return f"{self.name} over {len(self)} rows"

    def reference_search(self, low: Optional[float], high: Optional[float]) -> np.ndarray:
        """Scan-based reference answer (used by tests to validate any strategy)."""
        return scan_select(self._array, RangePredicate(low, high))

    def rebuilt(self, column: Union[Column, np.ndarray]) -> "SearchStrategy":
        """The access path to install after DML this strategy cannot absorb.

        By default everything learned is thrown away: a fresh instance over
        the changed base ``column``, same name, same owning table, same
        recorded options.  Subclasses override this to carry state across
        (the tuners keep their monitoring statistics, sideways cracking its
        crack history).  The caller closes the old strategy.
        """
        return create_strategy(self.name, column, table=self._table, **self.options)

    def close(self) -> None:
        """Release execution resources (thread pools, budgeted storage).

        Most strategies hold none — the base implementation is a no-op.
        The engine calls this whenever an access path is dropped or
        replaced, so strategies owning OS resources (the partitioned
        column's fan-out pool) must override it.
        """


class ScanStrategy(SearchStrategy):
    """Baseline: answer every query with a full scan, never build anything."""

    name = "scan"
    #: a scan reads the base column and builds nothing: pure reader
    reorganizes_on_read = False

    def search(self, low, high, counters=None):
        self.note_query()
        return scan_select(self._array, RangePredicate(low, high), counters)


class FullIndexStrategy(SearchStrategy):
    """Baseline: a full index built before the workload starts (offline indexing).

    The build cost is *not* charged to any query (it is assumed to have been
    paid offline in idle time); :attr:`build_counters` exposes it so
    experiments can report it separately.
    """

    name = "full-index"
    #: the index is immutable after construction: pure reader
    reorganizes_on_read = False

    def __init__(self, column, **options):
        super().__init__(column, **options)
        self.index = FullIndex(self._array)
        self.build_counters = self.index.build_counters

    def search(self, low, high, counters=None):
        self.note_query()
        return self.index.search(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.index.nbytes

    @property
    def structure_description(self) -> str:
        return f"full index ({self.nbytes} bytes)"


class SortFirstStrategy(SearchStrategy):
    """Baseline: build the full index during the *first* query (sort-first).

    This is the "create the index when you first need it" alternative; its
    first query pays the entire sort, after which every query runs at full
    index cost.
    """

    name = "sort-first"

    def __init__(self, column, **options):
        super().__init__(column, **options)
        self.index: Optional[FullIndex] = None

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating only until the first query has built the index."""
        return self.index is None

    def search(self, low, high, counters=None):
        self.note_query()
        if self.index is None:
            self.index = FullIndex(self._array, counters=counters)
        return self.index.search(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.index.nbytes if self.index is not None else 0


class CrackingStrategy(SearchStrategy):
    """Selection cracking (CIDR 2007) — the one wrapper behind every cracking name.

    The registry names differ only in the options they fix (see the
    registrations at the end of this module):

    * ``partitions`` — ``None`` cracks the whole column
      (:class:`~repro.core.cracking.cracked_column.CrackedColumn`); a shard
      count cracks a
      :class:`~repro.core.partitioned.PartitionedCrackedColumn`, which also
      takes ``parallel`` (the column may hand per-partition sub-selections
      to a thread pool, and does for those with enough to move; default
      False), ``max_workers``, and ``repartition``
      (adaptive repartitioning under skewed query or insert streams, default
      False) with ``max_partition_rows``/``split_threshold``;
    * ``supports_updates`` — whether the engine routes inserts, deletes and
      updates into the column's pending queues, merged on demand (SIGMOD
      2007), or rebuilds the strategy after DML.  ``policy`` (``"ripple"``
      merges every qualifying pending update, ``"gradual"`` at most
      ``merge_batch`` per query — default ``"ripple"``) and ``merge_batch``
      (gradual-policy budget, default 16) choose how.  Updatable names copy
      the column up front and charge the copy to no query; the read-only
      names charge it to the first query that touches it.
    """

    name = "cracking"
    #: forwarded to every cracked column, then the partitioned column's own
    _COLUMN_OPTIONS = ("policy", "merge_batch")
    _PARTITION_OPTIONS = ("partitions", "parallel", "max_workers", "repartition",
                          "max_partition_rows", "split_threshold")
    option_names = _COLUMN_OPTIONS + _PARTITION_OPTIONS

    def __init__(self, column, *, name="cracking", supports_updates=False,
                 **options):
        self.name = name
        super().__init__(column, **options)
        self.supports_updates = supports_updates
        column_options = _given(options, self._COLUMN_OPTIONS)
        column_options["lazy_copy"] = not supports_updates
        if options.get("partitions") is None:
            self.cracked = CrackedColumn(column, **column_options)
        else:
            self.cracked = PartitionedCrackedColumn(
                column, **column_options, **_given(options, self._PARTITION_OPTIONS)
            )

    def close(self) -> None:
        """Release the partitioned column's fan-out pool (if there is one)."""
        if isinstance(self.cracked, PartitionedCrackedColumn):
            self.cracked.close()

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating until the cracker column (every partition's, with known
        bounds and repartitioning off) is fully sorted.  An updatable name
        answers True for good: pending insert/delete queues merge on demand
        during any search."""
        return self.supports_updates or not self.cracked.converged

    queries_processed = _counted_by("cracked")

    def search(self, low, high, counters=None):
        return self.cracked.search(low, high, counters)

    def check_insertable(self, value):
        """Raise when :meth:`insert` would refuse ``value`` (the engine asks
        before it appends the row to the table)."""
        self.cracked.check_insertable(value)

    def insert(self, value, counters=None, rowid=None):
        """Queue an insert; returns the new row identifier."""
        return self.cracked.insert(value, counters, rowid=rowid)

    def delete(self, rowid, counters=None):
        """Queue the deletion of ``rowid``."""
        self.cracked.delete(rowid, counters)

    def update(self, rowid, new_value, counters=None):
        """Delete ``rowid`` and insert ``new_value``; returns the new rowid."""
        return self.cracked.update(rowid, new_value, counters)

    @property
    def nbytes(self) -> int:
        return self.cracked.nbytes

    @property
    def structure_description(self) -> str:
        cracked = self.cracked
        description = cracked.structure_description
        if self.supports_updates:
            description += (
                f", {cracked.pending_inserts}+{cracked.pending_deletes} "
                f"pending ({cracked.policy})"
            )
        return description


class StochasticCrackingStrategy(SearchStrategy):
    """Stochastic cracking (random auxiliary cuts; robust to adversarial patterns)."""

    name = "stochastic-cracking"
    option_names = ("variant", "size_threshold_fraction", "seed")

    def __init__(self, column, **options):
        super().__init__(column, **options)
        self.cracked = StochasticCrackedColumn(column, **self.options)

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating (query cracks plus auxiliary random cuts) until the
        cracker column becomes fully sorted."""
        return not self.cracked.converged

    queries_processed = _counted_by("cracked")

    def search(self, low, high, counters=None):
        return self.cracked.search(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.cracked.nbytes

    @property
    def structure_description(self) -> str:
        return f"stochastic cracking ({self.cracked.variant}): {self.cracked.piece_count} pieces"


class AdaptiveMergingStrategy(SearchStrategy):
    """Adaptive merging over sorted runs (EDBT 2010)."""

    name = "adaptive-merging"
    option_names = ("run_size",)

    def __init__(self, column, **options):
        super().__init__(column, **options)
        self.index = AdaptiveMergingIndex(column, **self.options)

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating until every run has drained into the final partition."""
        return not self.index.fully_merged

    queries_processed = _counted_by("index")

    def search(self, low, high, counters=None):
        return self.index.search(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.index.nbytes

    @property
    def structure_description(self) -> str:
        return (
            f"adaptive merging: {self.index.run_count} runs left, "
            f"{self.index.merged_count} tuples merged"
        )


class HybridStrategy(SearchStrategy):
    """The hybrid algorithms (PVLDB 2011) — the one wrapper behind every
    ``hybrid-*`` name.

    The registry names differ only in the two modes they fix (see the
    registrations at the end of this module): how much order the initial
    partitions get at creation and how the final partition organises what
    is merged into it — ``crack``-``crack`` (HCC, lazy everywhere, closest
    to plain cracking), ``crack``-``sort`` (HCS) and ``sort``-``sort``
    (HSS, adaptive merging in main memory).  ``partition_size`` is
    forwarded to :class:`~repro.core.hybrids.hybrid_index.HybridIndex`.
    """

    name = "hybrid-crack-sort"
    option_names = ("initial_mode", "final_mode", "partition_size")

    def __init__(self, column, *, name="hybrid-crack-sort", initial_mode="crack",
                 final_mode="sort", **options):
        self.name = name
        # the modes are recorded with the options, like every option a
        # name fixes, so ``rebuilt`` keeps a caller's override of them
        super().__init__(column, initial_mode=initial_mode,
                         final_mode=final_mode, **options)
        self.index = HybridIndex(column, **self.options)

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating until the hybrid converges: all tuples merged into the
        final partition *and* every final piece sorted (crack final pieces
        keep cracking on partial overlap and never converge)."""
        return not self.index.read_only_under_selection

    queries_processed = _counted_by("index")

    def search(self, low, high, counters=None):
        return self.index.search(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.index.nbytes

    @property
    def structure_description(self) -> str:
        return (
            f"{self.name}: {len(self.index.final)} tuples in final partition "
            f"({self.index.final.piece_count} pieces)"
        )


class SidewaysCrackingStrategy(SearchStrategy):
    """Sideways cracking (SIGMOD 2009): self-organising tuple reconstruction.

    The column is the *head* of a set of cracker maps ``M(head, tail)`` over
    the owning table's other attributes
    (:class:`~repro.core.cracking.sideways.SidewaysCracker`): a
    select-project cracks the maps of the attributes it needs on the head,
    so their values come back contiguous and aligned, with no random access
    into the base table.  ``budget_bytes`` bounds the materialised maps
    (least recently used evicted first, default unlimited).  Constructed
    over a bare array the head is the only attribute of a one-column table.
    """

    name = "sideways-cracking"
    covers_projection = True
    selection_priority = -1
    #: maps are materialised, aligned and cracked by every select
    reorganizes_on_read = True
    option_names = ("budget_bytes",)

    def __init__(self, column, **options):
        super().__init__(column, **options)
        head = (column.name if isinstance(column, Column) else "") or "value"
        table = self._table
        if table is None:
            array = self._array
            table = Table(head, {head: Column(array, name=head, dtype=exact_type(array.dtype))})
        self.cracker = SidewaysCracker(
            table, head,
            budget=StorageBudget(limit_bytes=options.get("budget_bytes")),
        )

    queries_processed = _counted_by("cracker")

    def search(self, low, high, counters=None):
        return self.select_project(low, high, {}, (), counters)[0]

    def select_project(self, low, high, refinements, projections, counters=None):
        columns = self.cracker.select_project(
            low, high, projections, counters, refinements
        )
        return columns.pop("__rowids__"), columns

    def rebuilt(self, column):
        """Maps are copies of the table's columns, so DML drops them all;
        the crack history carries over, and each map replays it when a
        query next materialises it from the changed table."""
        fresh = super().rebuilt(column)
        fresh.cracker.crack_history = self.cracker.crack_history
        return fresh

    def close(self) -> None:
        """Drop the maps and hand their bytes back to the budget."""
        self.cracker.budget.release(self.cracker.nbytes)
        self.cracker.maps.clear()

    @property
    def nbytes(self) -> int:
        return self.cracker.nbytes

    @property
    def structure_description(self) -> str:
        return f"{len(self.cracker.maps)} cracker maps"


class PartialCrackingStrategy(SearchStrategy):
    """Partial cracking (SIGMOD 2009): cracker structures under a storage bound.

    The value domain is cut into ``fragments``; a fragment is materialised
    when a query first touches its range, cracked independently from then
    on, and evicted least recently used first when the materialised
    fragments would exceed ``budget_bytes`` (default unlimited); ranges
    whose fragment cannot be held are scanned.  See
    :class:`~repro.core.cracking.partial.PartialCrackedColumn`.
    """

    name = "partial-cracking"
    #: a select materialises, cracks or evicts fragments, converged or not
    reorganizes_on_read = True
    option_names = ("budget_bytes", "fragments")

    def __init__(self, column, **options):
        super().__init__(column, **options)
        self.partial = PartialCrackedColumn(
            column,
            budget=StorageBudget(limit_bytes=options.get("budget_bytes")),
            **_given(options, ("fragments",)),
        )

    queries_processed = _counted_by("partial")

    def search(self, low, high, counters=None):
        return self.partial.search(low, high, counters)

    @property
    def nbytes(self) -> int:
        return self.partial.nbytes

    @property
    def structure_description(self) -> str:
        partial = self.partial
        return (
            f"partial cracking: {partial.materialised_fragments} of "
            f"{partial.fragment_count} fragments held, {partial.evictions} "
            f"evictions, {partial.fallback_scans} fallback scans"
        )


class _TunerStrategy(SearchStrategy):
    """A monitor-and-tune select operator behind the strategy contract.

    The tuner classes keep their own defaults: only the options the caller
    gave are forwarded.  One tuner serves one column here, so the
    ``max_indexes`` budget of the online tuner only matters as 0 ("never
    build").
    """

    #: every select updates the monitoring statistics and may build the index
    reorganizes_on_read = True
    selection_priority = 1

    #: the wrapped select operator (it takes every option of the strategy)
    #: and how its built structure (and only that: the cost witness
    #: fingerprints it) is worded
    tuner_class: Callable[..., object]
    structure_template = ""

    def __init__(self, column, **options):
        super().__init__(column, **options)
        if not isinstance(column, Column):
            # the tuners key their statistics and indexes by column name;
            # the copy keeps the array's dtype (a uint64 key enters no table)
            self._column = Column(self._array, name=self.name,
                                  dtype=exact_type(self._array.dtype))
        self.tuner = self.tuner_class(**self.options)

    queries_processed = _counted_by("tuner")

    def search(self, low, high, counters=None):
        return self.tuner.select(self._column, RangePredicate(low, high), counters)

    def rebuilt(self, column):
        """Keep the monitoring statistics, drop the built index: the tuner
        builds it again on the next query that crosses its threshold."""
        fresh = super().rebuilt(column)
        self.tuner.indexes.clear()
        fresh.tuner = self.tuner
        return fresh

    @property
    def nbytes(self) -> int:
        return sum(index.nbytes for index in self.tuner.indexes.values())

    @property
    def structure_description(self) -> str:
        return self.structure_template.format(len(self.tuner.indexes))


class OnlineTuningStrategy(_TunerStrategy):
    """Online index tuning (monitor, then build a full index inside the
    query that crosses the benefit threshold)."""

    name = "online"
    tuner_class = OnlineIndexTuner
    option_names = ("build_threshold_factor", "decay", "max_indexes")
    structure_template = "online tuner ({} indexes built)"


class SoftIndexStrategy(_TunerStrategy):
    """Soft indexes (recommend during processing, build piggy-backed on a scan)."""

    name = "soft"
    tuner_class = SoftIndexManager
    option_names = ("recommendation_threshold",)
    structure_template = "soft indexes ({} built)"


_REGISTRY: Dict[str, Callable[..., SearchStrategy]] = {}


def register_strategy(name: str, factory: Callable[..., SearchStrategy]) -> None:
    """Register a strategy factory under ``name`` (overwrites existing names)."""
    if not name:
        raise ValueError("strategy name must be non-empty")
    _REGISTRY[name] = factory


def available_strategies() -> List[str]:
    """Names of all registered strategies, sorted."""
    return sorted(_REGISTRY)


def create_strategy(
    name: str, column: Union[Column, np.ndarray], **options
) -> SearchStrategy:
    """Instantiate the strategy registered under ``name`` over ``column``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None
    return factory(column, **options)


for _cls in (
    ScanStrategy,
    FullIndexStrategy,
    SortFirstStrategy,
    OnlineTuningStrategy,
    SoftIndexStrategy,
    StochasticCrackingStrategy,
    SidewaysCrackingStrategy,
    PartialCrackingStrategy,
    AdaptiveMergingStrategy,
):
    register_strategy(_cls.name, _cls)

#: the cracking names: one wrapper, different fixed options
for _name, _fixed in (
    ("cracking", {}),
    ("partitioned-cracking", {"partitions": 4}),
    ("updatable-cracking", {"supports_updates": True}),
    ("partitioned-updatable-cracking",
     {"supports_updates": True, "partitions": 4}),
):
    register_strategy(_name, partial(CrackingStrategy, name=_name, **_fixed))

#: the hybrid names: one wrapper, (initial, final) partition modes fixed
for _initial, _final in (("crack", "crack"), ("crack", "sort"), ("sort", "sort")):
    _name = f"hybrid-{_initial}-{_final}"
    register_strategy(_name, partial(
        HybridStrategy, name=_name, initial_mode=_initial, final_mode=_final
    ))
