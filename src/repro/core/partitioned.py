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
set of row identifiers, whatever ``partitions`` is.  The column is read-only:
it takes no DML, so a session rebuilds it over the grown column after an
insert and filters deleted rows against the table's tombstones.  The
partitions are the ones :func:`partition_bounds` cuts, for the column's
whole life.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from itertools import starmap
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by
from repro.columnstore.column import Column
from repro.core.cracking.crack_engine import (
    CHARGE_COLUMNS,
    charge_batch,
    check_ranges,
)
from repro.core.access_path import SearchStrategy
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.cracker_index import Piece
from repro.cost.counters import CostCounters

__all__ = [
    "ColumnPartition",
    "PartitionedCrackedColumn",
    "partition_bounds",
]

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


def _called(function: Callable, arguments: tuple) -> Future:
    """A finished future holding what ``function(*arguments)`` returned or
    raised."""
    future: Future = Future()
    try:
        future.set_result(function(*arguments))
    except BaseException as error:  # re-raised, in call order, by the caller
        future.set_exception(error)
    return future


class ColumnPartition:
    """One contiguous shard of a partitioned cracked column.

    Owns a private :class:`CrackedColumn` over ``base[start:end]`` numbered
    in global coordinates (``rowid_base=start``), so its answers need no
    shifting.  The partition keeps the value bounds of the base slice: its
    min/max, computed the first time the partition is visited and charged to
    that query's counters, mirroring how the cracker-column copy charges the
    first query.
    """

    __slots__ = ("start", "end", "cracked", "min_value", "max_value",
                 "_bounds_known")

    def __init__(self, start: int, end: int, cracked: CrackedColumn) -> None:
        """``cracked`` holds the rows of ``base[start:end]``."""
        self.start = int(start)
        self.end = int(end)
        self.cracked = cracked
        self._bounds_known = False
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def __len__(self) -> int:
        """Number of currently visible rows in this partition."""
        return len(self.cracked)

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

    def overlaps(self, low: Optional[float], high: Optional[float],
                 counters: Optional[CostCounters]) -> bool:
        """True when ``[low, high)`` can contain visible values of this partition."""
        self._ensure_bounds(counters)
        if self.min_value is None:
            return False
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value >= high:
            return False
        return True


@guarded_by(
    _pool="_pool_lock",
    queries_processed="_stats_lock",
)
class PartitionedCrackedColumn(SearchStrategy):
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
        first query that needs it.  Per-partition cracks only touch
        partition-private state and every sub-selection gets private
        counters, merged into the caller's afterwards, so the fan-out is
        race-free and answers (and logical costs) are identical to the
        sequential run.  Each partition builds its cracker column from its
        slice when a query first needs it (cracked as it is built) and
        charges that query the copy.
    max_workers:
        Width of that pool, fixed at construction (default:
        ``os.cpu_count()``).
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        partitions: int = 4,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        name: str = "",
    ) -> None:
        base = column.values if isinstance(column, Column) else np.asarray(column)
        if base.ndim != 1:
            raise ValueError("partitioned cracked columns are one-dimensional")
        self.name = name or (column.name if isinstance(column, Column) else "")
        self._base = base
        self.parallel = bool(parallel)
        self.queries_processed = 0
        # a tuple: the partitions are cut once, here, and never change
        self._partitions: Tuple[ColumnPartition, ...] = tuple(
            ColumnPartition(
                start, end,
                CrackedColumn(
                    base[start:end], rowid_base=start,
                    name=f"{self.name}[{start}:{end}]" if self.name else "",
                ),
            )
            for start, end in partition_bounds(len(base), partitions)
        )
        # fixed for the column's life: the pool starts a thread only when a
        # task finds none idle, so a width above the partition count is free
        self._max_workers = max_workers or os.cpu_count() or 1
        # the two locks make a *converged* (read-only) column safe under the
        # concurrent readers the session lets in without a path lock:
        # ``_pool_lock`` keeps the lazy thread pool from being created twice,
        # ``_stats_lock`` keeps the shared query counter from losing
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
    def partitions(self) -> Tuple[ColumnPartition, ...]:
        """The partitions, left to right (for inspection and tests)."""
        return self._partitions

    @property
    def piece_count(self) -> int:
        """Total pieces across all partition cracker indexes."""
        return sum(p.cracked.piece_count for p in self._partitions)

    @property
    def nbytes(self) -> int:
        """Bytes of auxiliary storage held across all partitions."""
        return sum(p.cracked.nbytes for p in self._partitions)

    @property
    def materialised(self) -> bool:
        """True once at least one partition holds its cracker-column copy."""
        return any(p.cracked.materialised for p in self._partitions)

    @property
    def converged(self) -> bool:
        """True when a search can no longer reorganise any physical state.

        Requires every partition to be materialised with a fully sorted
        cracker column and known value bounds.  A converged partitioned
        column is read-only under selection — the remaining per-query
        bookkeeping (the query counter) is guarded by ``_stats_lock``, so the
        concurrent ``execute`` callers that read it without a path lock are
        safe.
        """
        return all(
            p._bounds_known and p.cracked.converged for p in self._partitions
        )

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating until :attr:`converged`."""
        return not self.converged

    #: the column itself, as ``benchmarks/e21_layers`` reads its piece count
    cracked = property(lambda self: self)

    def pieces(self) -> List[Piece]:
        """All pieces across partitions, positions shifted by the partition start."""
        result: List[Piece] = []
        for partition in self._partitions:
            start = partition.start  # hoisted out of the piece loop
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

    def _hand_offs(self, works: Iterable[int]) -> List[bool]:
        """Which of these sub-selections go to the pool, given the elements
        each is about to move: on a ``parallel`` column those moving at
        least :data:`_POOL_MIN_WORK`, provided two of them do ([] when none
        go; ``works`` is not read on a sequential column)."""
        if not self.parallel:
            return []
        handed = [work >= _POOL_MIN_WORK for work in works]
        return handed if sum(handed) >= 2 else []

    def _dispatch(self, calls: Sequence[Tuple[Callable, tuple]],
                  handed: Sequence[bool]) -> list:
        """Results of ``(function, arguments)`` calls, in order: the
        ``handed`` ones run on the pool, the others here while those are in
        flight.  Nothing is left running when this returns or raises: every
        call finishes first, then the first failure in call order is
        raised."""
        if not handed:
            return [function(*arguments) for function, arguments in calls]
        pool = self._executor()
        futures = [
            pool.submit(function, *arguments) if hand else None
            for (function, arguments), hand in zip(calls, handed)
        ]
        futures = [
            _called(function, arguments) if future is None else future
            for (function, arguments), future in zip(calls, futures)
        ]
        wait(futures)
        return [future.result() for future in futures]

    # -- the adaptive select operator -----------------------------------------

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Global rowids of visible rows with ``low <= value < high``.

        Only the partitions whose value range overlaps the predicate are
        visited; each cracks itself as a side effect of its own
        sub-selection.  Rowids are returned in partition order (ascending
        partition, cracker order within each partition); the *set* of
        rowids is identical to what a whole-column :class:`CrackedColumn`
        would return.  An inverted range raises ``ValueError``, as it does
        on the whole column, before any partition is pruned or touched.  A
        batch of one: :meth:`search_many`.
        """
        return self.search_many([(low, high)], [counters])[0]

    def search_many(
        self,
        ranges: Sequence[Tuple[Optional[float], Optional[float]]],
        counters_list: Sequence[Optional[CostCounters]],
    ) -> List[np.ndarray]:
        """The answers to ``ranges`` in order, with ``counters_list[i]``
        charged for range ``i`` — answers, counters and the state left
        behind are those of one :meth:`search` per range in turn.

        Every range is checked first.  Then pruning: a partition's
        first-touch bounds scan is charged to the first query, the first to
        ask it.  Each partition answers its share in one call: one
        :meth:`~repro.core.cracking.cracked_column.CrackedColumn.crack_batch`
        pass for two or more ranges a batchable partition locates
        (:meth:`~repro.core.cracking.cracked_column.CrackedColumn.locate_batch`),
        its own ``search_many`` otherwise — range by range, a lone range on
        ``crack_range``.  Given the elements each call is about to move (the
        pieces the pass touches, or ``crack_work`` per range), a
        ``parallel`` column hands some to the pool (:meth:`_hand_offs`),
        where a ``search_many`` charges private counters.  Once all calls
        are done the charges merge into ``counters_list``.
        """
        ranges = list(ranges)
        check_ranges(ranges)
        partitions = self._partitions
        queries = list(enumerate(zip(ranges, counters_list)))
        # per partition, the queries of the batch it answers
        shares = [[query for query, ((low, high), counters) in queries
                   if partition.overlaps(low, high, counters)]
                  for partition in partitions]
        with self._stats_lock:
            self.queries_processed += len(ranges)
        count = len(ranges)
        # per touched partition: its column, share, and the share's ranges
        # and counters (the batch's own lists when the share is all of it)
        jobs = [
            (partition.cracked, share,
             ranges if len(share) == count else [ranges[query] for query in share],
             counters_list if len(share) == count
             else [counters_list[query] for query in share])
            for partition, share in zip(partitions, shares) if share
        ]
        located = [cracked.locate_batch(mine) if len(share) > 1 and cracked.batchable
                   else None for cracked, share, mine, _ in jobs]
        handed = self._hand_offs(
            sum(starmap(cracked.crack_work, mine)) if bounds is None else bounds.work
            for (cracked, _, mine, _), bounds in zip(jobs, located))
        # on the pool a search_many charges private counters, merged below
        charged_to = [[None if counters is None else CostCounters() for counters in theirs]
                      if handed else theirs for _, _, _, theirs in jobs]
        done = self._dispatch([
            (cracked.search_many, (mine, counters)) if bounds is None
            else (cracked.crack_batch, (bounds,))
            for (cracked, _, mine, _), bounds, counters in zip(jobs, located, charged_to)
        ], handed)
        charged = (np.zeros((count, len(CHARGE_COLUMNS)), dtype=np.int64)
                   if located.count(None) < len(located) else None)
        results: List[List[np.ndarray]] = [[] for _ in ranges]
        for (_, share, _, _), bounds, privates, answers in zip(
                jobs, located, charged_to, done):
            if bounds is not None:
                answers, charges = answers
                charged[share] += charges
            elif handed:
                for query, private in zip(share, privates):
                    if private is not None:
                        counters = counters_list[query]
                        counters += private
            for query, chunk in zip(share, answers):
                results[query].append(chunk)
        if charged is not None:
            charge_batch(counters_list, charged)
        return [
            chunks[0] if len(chunks) == 1
            else np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            for chunks in results
        ]

    # -- maintenance / inspection ----------------------------------------------

    def is_fully_sorted(self) -> bool:
        """True when every partition is fully sorted internally (an
        unmaterialised read-only partition is not)."""
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
        # the partitions are still the ones the constructor cut
        assert [(p.start, p.end) for p in partitions] == partition_bounds(
            base_size, len(partitions)
        ), "partition row ranges are not the contiguous cut of the base column"
        # each partition's own check holds its rows to its row range and
        # their base values; an unmaterialised partition's rows are its row
        # range as is
        chunks = []
        for partition in partitions:
            cracked = partition.cracked
            cracked.check_invariants()
            chunks.append(cracked.rowids if cracked.materialised
                          else np.arange(partition.start, partition.end, dtype=np.int64))
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(base_size)), (
            "global rowids are not a permutation of the base positions"
        )

    @property
    def structure_description(self) -> str:
        touched = sum(1 for p in self._partitions if p.cracked.materialised)
        return (
            f"partitioned cracking: {self.partition_count} partitions "
            f"({touched} touched), {self.piece_count} pieces"
        )
