"""Partitioned (and optionally parallel) database cracking.

Cracking is inherently partitionable: a crack only ever touches the single
piece containing the pivot, so sharding a column into ``P`` contiguous
partitions — each owning its own cracker column and cracker index — turns a
range selection into at most ``P`` completely independent sub-selections.
:class:`PartitionedCrackedColumn` exploits this twice:

* **pruning** — each partition learns its value bounds (min/max) when it is
  first touched, so later queries crack only the partitions whose value
  range overlaps the predicate; cold regions of the key domain are never
  reorganised, exactly as in whole-column cracking, and cold *partitions*
  are not even visited;
* **parallelism** — with ``parallel=True`` the column may hand per-partition
  sub-selections to a :class:`concurrent.futures.ThreadPoolExecutor`, and
  decides per query and per partition whether it does: a sub-selection goes
  to the pool only when its crack is about to move at least
  :data:`_POOL_MIN_WORK` elements
  (:meth:`~repro.core.cracking.cracked_column.CrackedColumn.crack_work`: the
  whole slice on the first touch, the pieces holding the two bounds after
  it) and at least two of them do; the others run on the caller while those
  are in flight.  Each sub-selection records its work on a private
  :class:`~repro.cost.counters.CostCounters` instance, merged into the
  caller's counters in partition order afterwards, so logical cost
  accounting is independent of who ran what.

What the pool buys, measured (1M rows, 8 partitions, 2 workers on a 2-vCPU
host; the sweep is beside :data:`_POOL_MIN_WORK`): a hand-off costs ~100 µs
and pays only while the kernel behind it is a large numpy call that
releases the GIL.  That is the **cold first query** — eight 125k-row copies
and cracks, 10–14 ms through the pool against 13–20 ms on the caller — and
nothing after it: while the pieces hold 10k–60k elements the two are level,
and below that the kernel is ~45 µs.  A column that hands every
sub-selection over whatever its size (this one, before it decided) took
0.54–1.40 s over its first 1 000 queries against 0.40–0.44 s, and
441–927 µs per steady query against 320–358 µs.  A third backend, the
``process`` executor (worker processes over shared-memory segments), never
won anything — steady p50 12.9 ms against 0.26 ms sequential (49×), first
100 queries 0.78–1.33 s against 0.095 s, 0.075× at 8 000 rows — and was
removed together with its option; d51987e is the last commit that carries
it.

Every partition's :class:`~repro.core.cracking.cracked_column.CrackedColumn`
numbers its rows in global (base-column) coordinates, so per-partition
answers need no shifting and the partitioned column is a drop-in
replacement for the whole-column one: the answer to any query is the same
set of row identifiers, whatever ``partitions`` is.

Updates work as in the whole column, per partition: every partition's
column owns its pending insert/delete queues (merged on demand by ripple
movements), updates are routed to the owning partition — deletes by asking
the partitions which one knows the rowid, inserts by the partition value
bounds (best fit) — and the partition bounds are widened whenever an insert
lands outside them, so bounds pruning never hides a pending update.  Row
identifiers are assigned globally (base rows keep their base position,
inserted rows receive fresh identifiers starting at the base length).

Adaptive repartitioning
-----------------------

With ``repartition=True`` the column monitors per-partition load and
reorganises the partitioning itself, in the same adaptive philosophy as
cracking: physical reorganisation happens only where, and when, the
workload proves it worthwhile.  One policy decides which partition to
split, checked in this order:

* **row cap** — a partition holding more than ``max_partition_rows``
  visible rows (merged plus pending);
* **row skew** — with more than one partition, a partition holding more
  than ``split_threshold`` times the mean partition size, so a skewed
  insert stream cannot bloat one partition and degenerate the parallel
  fan-out to a single worker;
* **visit skew** — a partition absorbing more than ``split_threshold``
  times the mean visits (a zoom-in query stream), rebalancing future crack
  work.

The chosen partition is split at a crack boundary near its middle (or at
the median value when no useful boundary exists).  Conversely, partitions
drained by deletes are merged back into a value-adjacent sibling once their
combined size drops below the mean.

Splits cut the cracker arrays at an existing crack boundary, route pending
updates by value, and keep global rowids untouched, so answers stay
bit-identical to the unpartitioned column — repartitioning changes load
spread, never results.  Split and merge counts are exposed as
:attr:`partition_splits` / :attr:`partition_merges`.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import charges, guarded_by
from repro.columnstore.column import Column
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.cracker_index import CrackerIndex, Piece
from repro.cost.counters import CostCounters

__all__ = [
    "ColumnPartition",
    "PartitionedCrackedColumn",
    "PartitionedUpdatableCrackedColumn",
    "partition_bounds",
]

#: a partition must have been visited this often before query-skew splits it
_MIN_SPLIT_VISITS = 8

#: safety bound on splits performed per trigger check
_MAX_SPLITS_PER_CHECK = 8

#: a sub-selection is handed to the thread pool only when its crack is about
#: to move at least this many elements.  Not an option: set from this sweep
#: (1M uniform int64 keys, 8 partitions, 2 workers, 2-vCPU host, ranges of
#: 0.1 % of the domain; medians of 10 cold starts, three runs of the sweep;
#: ms for the first query / queries 2-10 / the first 100 / the first 1 000):
#:
#:   0 (always)   13.8 13.4 11.0 / 30.0 28.2 29.9 / 227 114 217 / 1399 543 1229
#:   2 048        13.7 12.9 13.1 / 33.7 27.0 31.1 / 232 107 196 /  682 423  595
#:   8 192        14.0 12.9  9.6 / 32.3 27.2 28.9 / 144 105 130 /  495 404  445
#:   32 768       10.5 13.2 10.1 / 27.0 27.4 25.7 /  99  96  97 /  441 405  405
#:   65 536       12.5 12.9 10.4 / 30.4 27.1 24.2 / 109  95  95 /  449 391  422
#:   100 000      11.3 12.7 10.8 / 31.1 26.8 26.8 / 110  98 102 /  438 407  417
#:   never        15.8 19.8 13.3 / 29.3 27.1 28.2 / 108 102 103 /  472 420  421
#:
#: The pool pays on the first touch (125k-row slices), is a wash while the
#: pieces hold 10k-60k elements and loses below; from 32k up to one
#: partition's slice the readings are the same, so the smallest such value.
_POOL_MIN_WORK = 32_768


def partition_bounds(size: int, partitions: int) -> List[Tuple[int, int]]:
    """Half-open ``[start, end)`` row ranges of ``partitions`` contiguous shards.

    Sizes differ by at most one (the first ``size % partitions`` shards get
    the extra row).  ``partitions`` is clamped to ``[1, max(1, size)]`` so an
    empty or tiny column still yields a valid partitioning.
    """
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    count = max(1, min(partitions, size)) if size > 0 else 1
    base, remainder = divmod(size, count)
    bounds = []
    start = 0
    for index in range(count):
        end = start + base + (1 if index < remainder else 0)
        bounds.append((start, end))
        start = end
    return bounds


def _content_bounds(
    column: CrackedColumn,
) -> Tuple[Optional[float], Optional[float]]:
    """Exact min/max over a column's merged values and pending inserts."""
    lows, highs = [], []
    if len(column.values):
        lows.append(column.values.min().item())
        highs.append(column.values.max().item())
    if column._pending_insert_values:
        lows.append(min(column._pending_insert_values))
        highs.append(max(column._pending_insert_values))
    if not lows:
        return None, None
    return min(lows), max(highs)


def _choose_split_pivot(
    values: np.ndarray, index: CrackerIndex, pending: Sequence[float] = ()
) -> Optional[float]:
    """A pivot that splits a partition into two non-empty halves, or None.

    ``values`` is the merged region, ``pending`` the queued insert values:
    they follow their value's side of the split, so both count toward the
    halves — a partition whose load is pending inserts has to be splittable.
    Prefers the existing crack boundary closest to the middle (free: no
    data movement beyond the cut), falling back to a key of the column's
    type near the median when no boundary separates anything yet.  Returns
    None when every element is equal (nothing can split the partition).
    """
    queued = sorted(pending)
    total = len(values) + len(queued)
    if total < 2:
        return None
    best = None  # (distance from the middle, boundary value)
    for value, position in zip(index.boundary_values, index.boundary_positions):
        below = position + bisect_left(queued, value)  # queued < value
        if 0 < below < total:
            candidate = (abs(below - total / 2), value)
            best = candidate if best is None else min(best, candidate)
    if best is not None:
        return best[1]
    values = np.concatenate([values, np.asarray(queued, dtype=values.dtype)])
    above = values[values > values.min()]
    if not len(above):
        return None
    # the upper middle key splits as the median does (no key lies between
    # the two middle ones), unless it is the minimum
    pivot = np.partition(values, len(values) // 2)[len(values) // 2]
    return max(pivot, above.min()).item()


class ColumnPartition:
    """One contiguous shard of a partitioned cracked column.

    Owns a private :class:`CrackedColumn` over ``base[start:end]`` numbered
    in global coordinates (``rowid_base=start``), so its answers need no
    shifting.  The partition keeps conservative value bounds: the min/max of
    the base slice — computed the first time the partition is visited and
    charged to that query's counters, mirroring how the lazy cracker-column
    copy charges the first query — widened by every value ever inserted into
    the partition.  Bounds are never narrowed — deleting the extreme value
    leaves them stale-wide, which only costs a spurious visit, never a
    missed row.

    After an adaptive-repartitioning split (or merge) a partition becomes a
    *fragment*: it owns an arbitrary value-contiguous subset of its parent's
    rows (the underlying column carries its base rowids as an explicit set),
    with exact value bounds set at split time; ``start``/``end`` keep naming
    the parent's row range.  It behaves identically otherwise.
    """

    __slots__ = ("start", "end", "cracked", "min_value", "max_value",
                 "_bounds_known", "_extra_min", "_extra_max", "visits")

    def __init__(
        self,
        start: int,
        end: int,
        cracked: CrackedColumn,
        bounds: Optional[Tuple[Optional[float], Optional[float]]] = None,
    ) -> None:
        """``cracked`` holds rows of ``base[start:end]``; ``bounds`` are its
        exact value bounds when the caller knows them (fragments), else they
        are learned from the column's base slice on the first visit."""
        self.start = int(start)
        self.end = int(end)
        self.cracked = cracked
        self._bounds_known = bounds is not None
        self.min_value, self.max_value = bounds or (None, None)
        self._extra_min: Optional[float] = None
        self._extra_max: Optional[float] = None
        self.visits = 0

    def __len__(self) -> int:
        """Number of currently visible rows in this partition."""
        return len(self.cracked)

    @charges("scans", "comparisons")
    def _ensure_bounds(self, counters: Optional[CostCounters]) -> None:
        """Learn the base slice's value range (one scan, charged once)."""
        if self._bounds_known:
            return
        base_slice = self.cracked._base
        if len(base_slice):
            self.min_value = base_slice.min().item()
            self.max_value = base_slice.max().item()
            if counters is not None:
                counters.record_scan(len(base_slice))
                counters.record_comparisons(2 * len(base_slice))
        self._bounds_known = True

    @property
    def effective_bounds(self) -> Tuple[Optional[float], Optional[float]]:
        """Known value bounds: base bounds (once learned) widened by inserts."""
        low, high = self.min_value, self.max_value
        if self._extra_min is not None:
            low = self._extra_min if low is None else min(low, self._extra_min)
            high = self._extra_max if high is None else max(high, self._extra_max)
        return low, high

    def overlaps(self, low: Optional[float], high: Optional[float],
                 counters: Optional[CostCounters]) -> bool:
        """True when ``[low, high)`` can contain visible values of this partition."""
        self._ensure_bounds(counters)
        bound_low, bound_high = self.effective_bounds
        if bound_low is None:
            return False
        if low is not None and bound_high < low:
            return False
        if high is not None and bound_low >= high:
            return False
        return True

    def insert(self, value: float, counters: Optional[CostCounters],
               rowid: int) -> int:
        """Queue one insert (globally numbered) and widen the bounds."""
        rowid = self.cracked.insert(value, counters, rowid=rowid)
        value = self.cracked.value_of(rowid)  # as the column stored it
        if self._extra_min is None or value < self._extra_min:
            self._extra_min = value
        if self._extra_max is None or value > self._extra_max:
            self._extra_max = value
        return rowid

    def load(self) -> dict:
        """Per-partition load summary (rows, visits, pending depth, pieces)."""
        return {
            "rows": len(self),
            "visits": self.visits,
            "pending": (self.cracked.pending_inserts
                        + self.cracked.pending_deletes),
            "pieces": self.cracked.piece_count,
        }

    @charges("scans", "comparisons")
    def split(
        self, counters: Optional[CostCounters]
    ) -> Optional[Tuple["ColumnPartition", "ColumnPartition"]]:
        """Split into two partitions; None when no useful pivot exists.

        A partition nobody touched yet is split by row range (two contiguous
        sub-slices, nothing to move).  A materialised one is cut at an
        existing crack boundary near the middle of the merged region (or at
        the median value); pending updates follow their value's side, global
        rowids are unchanged, and both fragments receive exact value bounds,
        so bounds pruning and insert routing stay tight after the split.
        """
        cracked = self.cracked
        if not cracked.materialised:
            mid = self.start + len(cracked) // 2
            if mid == self.start:
                return None

            def shard(start: int, end: int) -> "ColumnPartition":
                return ColumnPartition(start, end, CrackedColumn(
                    cracked._base[start - self.start:end - self.start],
                    rowid_base=start, policy=cracked.policy,
                    merge_batch=cracked.merge_batch,
                    name=cracked.name,
                ))

            return shard(self.start, mid), shard(mid, self.end)
        pivot = _choose_split_pivot(
            cracked.values, cracked.index, cracked._pending_insert_values
        )
        if pivot is None:
            return None
        fragments = cracked.split_at(pivot, counters)
        if counters is not None:
            # exact bounds of both fragments cost one scan of their content
            total = sum(len(fragment.values) for fragment in fragments)
            counters.record_scan(total)
            counters.record_comparisons(2 * total)
        return tuple(
            ColumnPartition(self.start, self.end, fragment,
                            _content_bounds(fragment))
            for fragment in fragments
        )


@guarded_by(
    _pool="_pool_lock",
    queries_processed="_stats_lock",
    partition_splits="_stats_lock",
    partition_merges="_stats_lock",
)
class PartitionedCrackedColumn:
    """A column sharded into contiguous partitions, each cracked independently.

    Parameters
    ----------
    column:
        Base column (or raw array), sharded into contiguous partitions.
    partitions:
        Number of contiguous shards (clamped to the column size; >= 1).
    parallel:
        When True the column may use a thread pool: of a query overlapping
        more than one partition, the sub-selections with at least
        :data:`_POOL_MIN_WORK` elements to move go to it (when there are two
        or more), the rest run on the caller; the pool is created by the
        first query that needs it.  Per-partition cracks and merges only
        touch partition-private state and every sub-selection gets private
        counters, merged into the caller's afterwards, so the fan-out is
        race-free and answers (and logical costs) are identical to the
        sequential run.
    repartition:
        Enable adaptive repartitioning: a partition over the row cap,
        bloated by a skewed insert stream or absorbing a skewed share of the
        visits is split at a crack boundary, and partitions drained by
        deletes are merged back into a value-adjacent sibling.  Answers are
        identical either way — repartitioning only changes load spread.
    max_partition_rows:
        Hard per-partition row cap enforced by repartitioning (None = no
        cap; with more than one partition the relative ``split_threshold``
        triggers apply as well).
    split_threshold:
        Relative skew trigger (> 1.0): a partition holding — or visited —
        more than ``split_threshold`` times the mean is split.
    policy / merge_batch / lazy_copy:
        Forwarded to every partition's :class:`CrackedColumn`: with
        ``lazy_copy`` (the default) each partition copies its slice when it
        is first touched and charges that query; otherwise all copies are
        made up front and charged to nobody.  Under the gradual policy each
        *partition* merges at most ``merge_batch`` pending updates per query
        it participates in.
    max_workers:
        Width of that pool, fixed at construction (default:
        ``os.cpu_count()``); repartitioning never resizes it.

    Updates are routed to the owning partition: deletes by asking the
    partitions which one knows the rowid, and inserts to the *best-fit*
    partition — the one with the tightest value bounds containing the value
    (falling back to the nearest partition by value distance, then to the
    last partition while no bounds are known).  Routing never affects
    answers — rowids are global — only load spread.
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        partitions: int = 4,
        parallel: bool = False,
        repartition: bool = False,
        max_partition_rows: Optional[int] = None,
        split_threshold: float = 2.0,
        max_workers: Optional[int] = None,
        name: str = "",
        policy: str = "ripple",
        merge_batch: int = 16,
        lazy_copy: bool = True,
    ) -> None:
        base = column.values if isinstance(column, Column) else np.asarray(column)
        if base.ndim != 1:
            raise ValueError("partitioned cracked columns are one-dimensional")
        if max_partition_rows is not None and max_partition_rows < 1:
            raise ValueError("max_partition_rows must be >= 1")
        if split_threshold <= 1.0:
            raise ValueError("split_threshold must be > 1.0")
        self.name = name or (column.name if isinstance(column, Column) else "")
        self._base = base
        self.parallel = bool(parallel)
        self.repartition = bool(repartition)
        self.max_partition_rows = (
            None if max_partition_rows is None else int(max_partition_rows)
        )
        self.split_threshold = float(split_threshold)
        self.policy = policy
        self.merge_batch = int(merge_batch)
        self.queries_processed = 0
        self.partition_splits = 0
        self.partition_merges = 0
        self._partitions: List[ColumnPartition] = [
            ColumnPartition(
                start, end,
                CrackedColumn(
                    base[start:end], rowid_base=start, policy=policy,
                    merge_batch=merge_batch, lazy_copy=lazy_copy,
                    name=f"{self.name}[{start}:{end}]" if self.name else "",
                ),
            )
            for start, end in partition_bounds(len(base), partitions)
        ]
        self._next_rowid = len(base)
        # fixed for the column's life: the pool starts a thread only when a
        # task finds none idle, so a width above the partition count is free
        self._max_workers = max_workers or os.cpu_count() or 1
        # the two locks make a *converged* (read-only) column safe under the
        # concurrent readers the batch scheduler fans out: ``_pool_lock``
        # keeps the lazy thread pool from being created twice,
        # ``_stats_lock`` keeps shared visit/query counters from losing
        # increments
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()

    # -- basic properties -----------------------------------------------------

    def __len__(self) -> int:
        """Number of currently visible rows across all partitions."""
        return sum(len(p) for p in self._partitions)

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    @property
    def partitions(self) -> List[ColumnPartition]:
        """The partitions, left to right (for inspection and tests)."""
        return list(self._partitions)

    @property
    def piece_count(self) -> int:
        """Total pieces across all partition cracker indexes."""
        return sum(p.cracked.piece_count for p in self._partitions)

    @property
    def nbytes(self) -> int:
        """Bytes of auxiliary storage held across all partitions."""
        return sum(p.cracked.nbytes for p in self._partitions)

    @property
    def pending_inserts(self) -> int:
        return sum(p.cracked.pending_inserts for p in self._partitions)

    @property
    def pending_deletes(self) -> int:
        return sum(p.cracked.pending_deletes for p in self._partitions)

    @property
    def merges_performed(self) -> int:
        return sum(p.cracked.merges_performed for p in self._partitions)

    @property
    def materialised(self) -> bool:
        """True once at least one partition holds its cracker-column copy."""
        return any(p.cracked.materialised for p in self._partitions)

    @property
    def converged(self) -> bool:
        """True when a search can no longer reorganise any physical state.

        Requires every partition to be materialised with a fully sorted
        cracker column, empty pending queues and known value bounds, and
        adaptive repartitioning to be off (a repartitioning column may still
        split on any query).  A converged partitioned column is read-only
        under selection — the remaining per-query bookkeeping (visit and
        query counters) is guarded by ``_stats_lock``, so concurrent readers
        are safe.
        """
        if self.repartition:
            return False
        return all(
            p._bounds_known and p.cracked.converged for p in self._partitions
        )

    def pieces(self) -> List[Piece]:
        """All pieces across partitions, positions shifted by the partition start.

        After repartitioning splits, fragments of one parent share the
        parent's coordinate frame, so their piece positions describe
        per-partition regions rather than one global tiling.
        """
        result: List[Piece] = []
        for partition in self._partitions:
            start = partition.start  # hoisted out of the piece loop (PF002)
            for piece in partition.cracked.pieces():
                result.append(
                    Piece(
                        start=piece.start + start,
                        end=piece.end + start,
                        low=piece.low,
                        high=piece.high,
                    )
                )
        return result

    def partition_loads(self) -> List[dict]:
        """Per-partition load summaries, left to right."""
        return [p.load() for p in self._partitions]

    # -- the thread fan-out -----------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-partition",
                )
            return self._pool

    def close(self) -> None:
        """Release the thread pool.

        Idempotent, and not final — a later parallel query re-creates it.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # never join here: the collector can run a finalizer inside
        # ``threading``'s own bookkeeping lock (while another thread is being
        # started), where ``Thread.join`` needs that lock again and deadlocks
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def _fan_out(
        self,
        targets: Sequence[ColumnPartition],
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters],
    ) -> List[np.ndarray]:
        """Search every target partition; results come in partition order.

        On a ``parallel`` column a sub-selection whose crack is about to move
        at least :data:`_POOL_MIN_WORK` elements goes to the pool, provided
        there are two of them to overlap; the others run here, on the caller,
        while those are in flight.  Whoever runs it, each sub-selection then
        writes to private counters, merged into ``counters`` in partition
        order once all are done — workers never share a mutable counter
        instance, and the totals do not depend on the dispatch.
        """
        searches = [target.cracked.search for target in targets]
        pooled = [
            target.cracked.crack_work(low, high) >= _POOL_MIN_WORK
            for target in targets
        ] if self.parallel and len(targets) > 1 else ()
        if sum(pooled) < 2:
            return [search(low, high, counters) for search in searches]
        privates = [CostCounters() if counters is not None else None
                    for _ in targets]
        pool = self._executor()
        futures = [
            pool.submit(search, low, high, private) if handed else None
            for search, private, handed in zip(searches, privates, pooled)
        ]
        inline = [
            None if handed else search(low, high, private)
            for search, private, handed in zip(searches, privates, pooled)
        ]
        results = [
            chunk if future is None else future.result()
            for future, chunk in zip(futures, inline)
        ]
        if counters is not None:
            for private in privates:
                counters += private
        return results

    # -- update routing ---------------------------------------------------------

    def _route_insert(self, value: float) -> ColumnPartition:
        """The partition that should absorb an insert of ``value``.

        Best fit: among the partitions whose known bounds contain the value,
        the one with the *tightest* bounds — after a split, the fragment
        actually covering the hot range, not merely the leftmost partition
        whose (possibly stale-wide) bounds happen to contain it.  Failing
        that the partition nearest by value distance, and the last partition
        while no bounds are known at all.
        """
        best: Optional[ColumnPartition] = None
        best_span: Optional[float] = None
        nearest: Optional[ColumnPartition] = None
        nearest_distance: Optional[float] = None
        for partition in self._partitions:
            low, high = partition.effective_bounds
            if low is None:
                continue
            if low <= value <= high:
                if best_span is None or high - low < best_span:
                    best, best_span = partition, high - low
            else:
                distance = (low - value) if value < low else (value - high)
                if nearest_distance is None or distance < nearest_distance:
                    nearest, nearest_distance = partition, distance
        # Identity tests, not truthiness: a partition drained by deletes has
        # ``len() == 0`` and would read as falsy, yet still owns its bounds.
        if best is not None:
            return best
        return nearest if nearest is not None else self._partitions[-1]

    def _owning_partition(self, rowid: int) -> ColumnPartition:
        """The partition owning ``rowid``.

        Every partition can answer ownership in O(1) for base rows (range
        or set membership) and for inserted rows (its insert registry), so
        the lookup is a short scan over the partition list; fully removed
        rows are unknown everywhere and raise ``KeyError``, matching the
        unpartitioned column.
        """
        for partition in self._partitions:
            if partition.cracked.knows_rowid(rowid):
                return partition
        raise KeyError(f"unknown row identifier {rowid}")

    # -- adaptive repartitioning -------------------------------------------------

    def _split_candidate(
        self, unsplittable: Sequence[ColumnPartition] = ()
    ) -> Optional[int]:
        """Index of the partition most in need of a split, or None.

        Row cap first, then row skew, then visit skew (see the module
        docstring); partitions in ``unsplittable`` are passed over.
        """
        partitions = self._partitions
        count = len(partitions)
        sizes = [len(p) for p in partitions]
        eligible = [
            i for i in range(count)
            if sizes[i] >= 2 and partitions[i] not in unsplittable
        ]
        if self.max_partition_rows is not None:
            over = [
                (sizes[i], i) for i in eligible
                if sizes[i] > self.max_partition_rows
            ]
            if over:
                return max(over)[1]
        if count > 1:
            mean_rows = sum(sizes) / count
            big = [
                (sizes[i], i) for i in eligible
                if sizes[i] > self.split_threshold * mean_rows
            ]
            if big:
                return max(big)[1]
            visits = [p.visits for p in partitions]
            mean_visits = sum(visits) / count
            hot = [
                (visits[i], i) for i in eligible
                if visits[i] >= _MIN_SPLIT_VISITS
                and visits[i] > self.split_threshold * mean_visits
                and sizes[i] * self.split_threshold >= mean_rows
            ]
            if hot:
                return max(hot)[1]
        return None

    def _maybe_split(self, counters: Optional[CostCounters]) -> None:
        """Split skewed partitions (bounded work per call; main thread only)."""
        if not self.repartition:
            return
        partitions = self._partitions  # hoisted out of the split loop (PF002)
        # a candidate without a pivot (one value, however often) is passed
        # over for the rest of the call, or it would be chosen again at once
        # and no other partition would ever be split
        unsplittable: List[ColumnPartition] = []
        for _ in range(_MAX_SPLITS_PER_CHECK):
            candidate = self._split_candidate(unsplittable)
            if candidate is None:
                break
            parent = partitions[candidate]
            children = parent.split(counters)
            if children is None:
                unsplittable.append(parent)
                continue
            left, right = children
            left.visits = right.visits = parent.visits // 2
            partitions[candidate:candidate + 1] = [left, right]
            with self._stats_lock:
                self.partition_splits += 1

    def _maybe_merge(self, counters: Optional[CostCounters]) -> None:
        """Merge one pair of cold, value-adjacent partitions (main thread only).

        Candidates are adjacent partitions whose combined visible rows have
        dropped below the mean partition size and whose known value ranges
        are provably disjoint (split descendants; a partition that never
        held any value merges with either neighbour).  Conservative on
        purpose: stale-wide bounds or unlearned bounds skip the merge, which
        costs balance, never correctness.
        """
        if not self.repartition or len(self._partitions) < 2:
            return
        partitions = self._partitions  # hoisted out of the merge loop (PF002)
        sizes = [len(p) for p in partitions]
        mean_rows = sum(sizes) / len(sizes)
        for i in range(len(partitions) - 1):
            left, right = partitions[i], partitions[i + 1]
            if sizes[i] + sizes[i + 1] > mean_rows:
                continue
            if not left._bounds_known or not right._bounds_known:
                continue
            left_low, left_high = left.effective_bounds
            right_low, right_high = right.effective_bounds
            if left_low is not None and right_low is not None:
                if left_high >= right_low:
                    continue
                pivot = right_low
            else:
                # one side never held a value: nothing constrains the merge
                pivot = right_low if right_low is not None else 0.0
            merged_column = CrackedColumn.merged(
                left.cracked, right.cracked, pivot, counters
            )
            lows = [b for b in (left_low, right_low) if b is not None]
            highs = [b for b in (left_high, right_high) if b is not None]
            merged = ColumnPartition(
                left.start, max(left.end, right.end), merged_column,
                (min(lows) if lows else None, max(highs) if highs else None),
            )
            merged.visits = left.visits + right.visits
            partitions[i:i + 2] = [merged]
            with self._stats_lock:
                self.partition_merges += 1
            return

    # -- updates ----------------------------------------------------------------

    def check_insertable(self, value: float) -> None:
        """Raise when ``value`` cannot be stored (every partition agrees)."""
        self._partitions[0].cracked.check_insertable(value)

    def insert(self, value: float, counters: Optional[CostCounters] = None,
               rowid: Optional[int] = None) -> int:
        """Queue the insertion of ``value``; returns its new (global) rowid.

        Identifiers are assigned sequentially; a caller-supplied ``rowid``
        is only checked against the one the insert is about to receive.
        """
        if rowid is not None and rowid != self._next_rowid:
            raise ValueError(
                "partitioned cracking assigns rowids sequentially; "
                f"expected {self._next_rowid}, got {rowid}"
            )
        partition = self._route_insert(value)
        rowid = partition.insert(value, counters, self._next_rowid)
        self._next_rowid += 1
        self._maybe_split(counters)
        return rowid

    def delete(self, rowid: int, counters: Optional[CostCounters] = None) -> None:
        """Queue the deletion of the row identified by (global) ``rowid``."""
        self._owning_partition(rowid).cracked.delete(rowid, counters)
        self._maybe_merge(counters)

    def update(self, rowid: int, new_value: float,
               counters: Optional[CostCounters] = None) -> int:
        """Update = delete old row + insert new value; returns the new rowid.

        The new value is validated before the delete is queued, so a
        rejected value leaves the old row untouched.
        """
        self.check_insertable(new_value)
        self.delete(rowid, counters)
        return self.insert(new_value, counters)

    # -- the adaptive select operator -----------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Global rowids of visible rows with ``low <= value < high``.

        Only the partitions whose value range overlaps the predicate are
        visited; each merges its own qualifying pending updates (per the
        configured policy) and cracks itself as a side effect of its own
        sub-selection.  Rowids are returned in partition order (ascending
        partition, cracker order within each partition); the *set* of
        rowids is identical to what a whole-column :class:`CrackedColumn`
        would return.
        """
        self._maybe_split(counters)
        targets = [p for p in self._partitions if p.overlaps(low, high, counters)]
        with self._stats_lock:
            self.queries_processed += 1
            for target in targets:
                target.visits += 1
        if not targets:
            return np.empty(0, dtype=np.int64)
        chunks = self._fan_out(targets, low, high, counters)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)

    # -- maintenance / inspection ----------------------------------------------

    def is_fully_sorted(self) -> bool:
        """True when every partition is materialised and fully sorted internally."""
        return all(p.cracked.is_fully_sorted() for p in self._partitions)

    def visible_values(self) -> np.ndarray:
        """Multiset of currently visible values (reference for tests)."""
        return np.concatenate(
            [p.cracked.visible_values() for p in self._partitions]
        )

    def check_invariants(self) -> None:
        """Per-partition invariants plus global rowid/layout consistency (tests)."""
        base_size = len(self._base)
        partitions = self._partitions
        covered = np.zeros(base_size, dtype=bool)
        for partition in partitions:
            partition.cracked.check_invariants()
            assert 0 <= partition.start <= partition.end <= base_size, (
                f"row range [{partition.start}:{partition.end}) outside the base"
            )
            covered[partition.start:partition.end] = True
        assert covered.all(), "partition row ranges do not cover the base column"
        for left, right in zip(partitions, partitions[1:]):
            assert left.start <= right.start, (
                "partitions are not ordered by row-range start"
            )
            if not (left.start < right.end and right.start < left.end):
                continue
            # partitions sharing rows of the base (split descendants) must
            # cover disjoint value ranges, in list order
            left_high = left.effective_bounds[1]
            right_low = right.effective_bounds[0]
            if left_high is None or right_low is None:
                continue
            assert left_high < right_low, (
                f"split siblings have overlapping value bounds: "
                f"{left_high} !< {right_low}"
            )
        # every rowid lives in exactly one partition; base rows stay inside
        # their partition's row range and keep their base value (a pristine
        # partition contributes its row range as is)
        chunks = []
        for partition in partitions:
            cracked = partition.cracked
            if not cracked.materialised:
                chunks.append(
                    np.arange(partition.start, partition.end, dtype=np.int64)
                )
                continue
            original = cracked.rowids < base_size
            base_rowids = cracked.rowids[original]
            assert np.all(
                (base_rowids >= partition.start) & (base_rowids < partition.end)
            ), (
                f"base rows merged outside their partition row range "
                f"[{partition.start}:{partition.end})"
            )
            assert np.array_equal(
                cracked.values[original], self._base[base_rowids]
            ), f"partition [{partition.start}:{partition.end}) misaligned with base"
            for rowid in cracked.rowids[~original].tolist():
                assert cracked.knows_rowid(rowid), (
                    f"inserted row {rowid} lives in a partition that does "
                    f"not know it"
                )
            chunks.append(cracked.rowids)
            chunks.append(np.asarray(cracked._pending_insert_rowids,
                                     dtype=np.int64))
            # everything a partition holds stays within its known bounds
            if partition._bounds_known:
                low, high = partition.effective_bounds
                content_low, content_high = _content_bounds(cracked)
                if content_low is not None:
                    assert low is not None and low <= content_low, (
                        f"partition content below its bounds: "
                        f"{content_low} < {low}"
                    )
                    assert high >= content_high, (
                        f"partition content above its bounds: "
                        f"{content_high} > {high}"
                    )
        all_rowids = np.concatenate(chunks)
        assert len(np.unique(all_rowids)) == len(all_rowids), (
            "a row appears in two partitions"
        )
        if not self.merges_performed:
            # nothing inserted or deleted physically: the merged rowids are
            # exactly the base positions
            merged = all_rowids[all_rowids < base_size]
            assert np.array_equal(np.sort(merged), np.arange(base_size)), (
                "global rowids are not a permutation of the base positions"
            )

    @property
    def structure_description(self) -> str:
        touched = sum(1 for p in self._partitions if p.cracked.materialised)
        description = (
            f"partitioned cracking: {self.partition_count} partitions "
            f"({touched} touched), {self.piece_count} pieces"
        )
        if self.repartition:
            description += (
                f", {self.partition_splits} splits/"
                f"{self.partition_merges} merges"
            )
        return description


#: the historical name of the column with every partition copied up front
#: (and charged to no query) — the accounting the updatable registry name uses.
#: A factory, not a type: ``isinstance`` and annotations take the class above.
PartitionedUpdatableCrackedColumn = partial(PartitionedCrackedColumn, lazy_copy=False)
