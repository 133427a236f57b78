"""The cracked column: selection cracking as a select operator, under updates.

A :class:`CrackedColumn` is the adaptive-indexing counterpart of a plain
scan: its :meth:`search` answers a range selection **and**, as a side
effect, physically reorganises its private copy of the column (the *cracker
column*) so that the qualifying values become contiguous.  The more a key
range is queried, the more refined that region of the cracker column
becomes; ranges never queried are never touched.

Updates (Idreos, Kersten, Manegold; SIGMOD 2007) are handled "in the same
adaptive philosophy" as cracking itself: inserts and deletes are queued in
pending structures and merged into the cracker column *on demand*, only
when a query's range touches the pending values, and only the touched
values are merged.  The physical merge uses *ripple* movements: to make
room for (or close the hole left by) one value inside a piece, exactly one
element per subsequent piece is relocated, so the cost is proportional to
the number of pieces — not to the column size.  A column nobody updates is
simply the degenerate case: its queues stay empty and :meth:`search` is the
plain cracking select operator.

Two merging policies are provided:

* ``"ripple"`` — merge every qualifying pending update before answering
  (the default, complete-merge policy);
* ``"gradual"`` — merge at most ``merge_batch`` pending updates *in total*
  per query — inserts and deletes share the one budget and are served
  round-robin, the leading kind alternating from batch to batch, so neither
  class can starve the other even at a budget of one — and answer the
  remainder directly from the pending structures, spreading the
  maintenance cost over more queries.

Each pending queue keeps its entries in arrival order, which is the merge
order, and beside them a value-ordered index (:class:`_QueueIndex`) in
typed storage: the queued values in ascending order with each one's arrival
number (16 B an entry), and the arrival numbers in queue order (8 B).
Every change to a queue changes its index in the same call.  A query finds
what qualifies with two bisects of each index and maps the qualifying
arrival numbers back to queue positions, so a query whose range holds no
pending value does O(log n) work, none per entry.

Cost accounting follows the convention established for the cracking
kernels: whenever the pending structures are non-empty, a query is charged
one comparison per pending entry for deciding which updates qualify.  That
bills the modelled algorithm — a scan of the pending structures, as in the
paper — not the bisects, the way adaptive merging bills its modelled splice
rather than the rank-addressed write it performs.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import guarded_by, typed_kernel
from repro.columnstore.bulk import binary_search_count, lower_bound
from repro.columnstore.column import Column
from repro.columnstore.types import exact_key
from repro.core.access_path import SearchStrategy
from repro.core.cracking.cracker_index import CrackerIndex, Piece
from repro.core.cracking.crack_engine import (
    BatchBounds,
    charge_batch,
    check_ranges,
    crack_cold,
    crack_many,
    crack_range,
    crack_value,
    locate_bounds,
    ripple_delete_position,
    ripple_insert_value,
)
from repro.cost.counters import CostCounters

#: work-queue tags for the interleaved merge batch (int8 kind buffer)
_KIND_INSERT, _KIND_DELETE = 0, 1

#: what the pending structures contribute to an answer when they are empty
_NOTHING_PENDING = np.empty(0, dtype=np.int64)


def _value_queue(dtype: np.dtype) -> array:
    """An empty queue of values of a ``dtype`` column.  :mod:`array` and
    numpy share the one-letter codes of the machine types, so the queue is
    bit-exact and ``np.frombuffer(queue, dtype=queue.typecode)`` views it
    without a copy; any other dtype queues float64."""
    return array(dtype.char if dtype.char in "bBhHiIlLqQfd" else "d")


class _QueueIndex:
    """The value-ordered index of one pending queue.

    ``keys`` holds the queued values in ascending order, ties in arrival
    order, and ``arrivals`` the arrival number of each; ``queued`` holds
    the arrival numbers in queue order, so it ascends, and a bisect of it
    turns an arrival number back into a queue position.  A NaN entry is
    queued but not keyed: no bounded range holds it, and the fully open
    range takes the whole queue.
    """

    __slots__ = ("keys", "arrivals", "queued", "_next")

    def __init__(self, typecode: str) -> None:
        self.keys = array(typecode)
        self.arrivals = array("q")
        self.queued = array("q")
        self._next = 0

    def add(self, value) -> None:
        """Index a value appended to the queue."""
        if value == value:
            position = bisect_right(self.keys, value)
            self.keys.insert(position, value)
            self.arrivals.insert(position, self._next)
        self.queued.append(self._next)
        self._next += 1

    def remove(self, position: int, value) -> None:
        """Forget queue entry ``position``, which holds ``value``."""
        arrival = self.queued.pop(position)
        if value == value:
            start = bisect_left(self.keys, value)
            end = bisect_right(self.keys, value, start)
            slot = bisect_left(self.arrivals, arrival, start, end)
            del self.keys[slot]
            del self.arrivals[slot]

    def fill(self, values: np.ndarray) -> None:
        """Index ``values``, queued in this order on an empty queue: one
        stable sort, no Python object per entry."""
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        if ordered.dtype.kind == "f":  # NaN sorts last
            kept = int(np.searchsorted(ordered, np.nan))
            order, ordered = order[:kept], ordered[:kept]
        self.keys.frombytes(memoryview(ordered).cast("B"))
        self.arrivals.frombytes(memoryview(order.astype(np.int64, copy=False)).cast("B"))
        self.queued.frombytes(memoryview(np.arange(len(values), dtype=np.int64)).cast("B"))
        self._next = len(values)

    def within(self, low, high) -> np.ndarray:
        """Queue positions of the entries with ``low <= value < high``, in
        arrival order; a ``None`` bound is unbounded."""
        if low is None and high is None:
            return np.arange(len(self.queued))
        start = 0 if low is None else bisect_left(self.keys, low)
        end = len(self.keys) if high is None else bisect_left(self.keys, high, start)
        if start == end:
            return _NOTHING_PENDING
        arrivals = np.sort(np.frombuffer(self.arrivals, dtype=np.int64)[start:end])
        return np.searchsorted(np.frombuffer(self.queued, dtype=np.int64), arrivals)


@guarded_by(queries_processed="_stats_lock")
class CrackedColumn(SearchStrategy):
    """Cracker column + cracker index + adaptive select operator + pending updates.

    Parameters
    ----------
    column:
        The base column (or a raw array).  The cracked column keeps its own
        copy — the cracker column — plus an aligned array of row
        identifiers, so search results identify rows of the *base* column.
        Both are built by the first search or crack that needs them, never
        by the constructor: a first crack builds them from the base already
        cracked (:func:`crack_cold`: the stable grouping of the base is the
        rowid column, the values one gather through it); a first search
        with pending updates to merge, a fully open range, a batch and a
        sorted base latching :attr:`converged` copy the base as it is
        (:meth:`_materialise`).  Inserts and deletes only queue.
    supports_updates:
        When False (the default) the column is a read-only access path and
        its first search is charged for the copy — a scan and a move of
        every row plus the bytes of the two arrays — because the
        literature's cost model charges the copy to the first query.  When
        True it is an updatable access path: the engine routes inserts,
        deletes and updates into its pending queues instead of rebuilding it
        after DML, and the copy is charged to no operation.  Either way the
        column is observably the one that copied at construction: the same
        arrays, answers, counters and :attr:`converged` latch.
    policy / merge_batch:
        How pending updates are merged: ``"ripple"`` merges every pending
        update a query's range qualifies, ``"gradual"`` at most
        ``merge_batch`` per query (see the module docstring).
    rowid_base:
        Identifier of the first base row.  Rows of the base column keep
        their position shifted by ``rowid_base`` as identifier; rows
        inserted later receive fresh identifiers starting at
        ``rowid_base + len(column)``, or an identifier supplied by the
        caller (the session passes the table's row position).  The
        partitioned column uses this to number every shard's rows in global
        (base-column) coordinates, so per-partition answers need no
        shifting.

    :meth:`search` returns identifiers of all *visible* qualifying rows
    (base rows minus deleted plus inserted).
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        supports_updates: bool = False,
        name: str = "",
        policy: str = "ripple",
        merge_batch: int = 16,
        rowid_base: int = 0,
    ) -> None:
        base = column.values if isinstance(column, Column) else np.asarray(column)
        if base.ndim != 1:
            raise ValueError("cracked columns are one-dimensional")
        if policy not in ("ripple", "gradual"):
            raise ValueError(f"unknown update policy {policy!r}")
        if merge_batch < 1:
            raise ValueError("merge_batch must be >= 1")
        self.name = name or (column.name if isinstance(column, Column) else "")
        self.supports_updates = bool(supports_updates)
        self.policy = policy
        self.merge_batch = int(merge_batch)
        self.rowid_base = int(rowid_base)
        self._base = base
        # number of *merged* rows: the live length of the cracker column
        self._length = len(base)
        self._next_rowid = self.rowid_base + len(base)
        # the cracker column and its row identifiers (None until
        # materialised): ``values``/``rowids`` are the live region,
        # the buffers may hold spare capacity for ripple inserts behind it
        self.values: Optional[np.ndarray] = None
        self.rowids: Optional[np.ndarray] = None
        self._values_buffer: Optional[np.ndarray] = None
        self._rowids_buffer: Optional[np.ndarray] = None
        self.index = CrackerIndex(len(base))
        # pending structures: typed queues in arrival order, which is the
        # merge order, each beside a value-ordered index that answers a
        # range in O(log n) and the queued rowids for membership (a set of
        # the inserts; the deletes ascending in typed storage, as
        # :meth:`delete_base_rows` builds them without a Python object each)
        self._pending_insert_values = _value_queue(base.dtype)
        self._pending_insert_rowids = array("q")
        self._pending_insert_rowid_set: set = set()
        self._insert_index = _QueueIndex(self._pending_insert_values.typecode)
        self._delete_queue_values = _value_queue(base.dtype)
        self._delete_queue_rowids = array("q")
        self._pending_delete_rowids = array("q")
        self._delete_index = _QueueIndex(self._delete_queue_values.typecode)
        # values of rows inserted at any point (needed to delete them later)
        self._inserted_values: Dict[int, float] = {}
        # base rows whose delete has been merged: their value stays in the
        # base, so this is what tells a removed base row from a live one
        self._removed_base_rowids: set = set()

        self.queries_processed = 0
        self.merges_performed = 0
        # which kind leads the next interleaved merge batch; the gradual
        # policy alternates it (see _merge_pending), the ripple one merges
        # every qualifying entry and always leads with the inserts
        self._deletes_lead = False
        # once True, search answers by pure binary search and never mutates
        # the cracker column again (see :attr:`converged`)
        self._converged = False
        # last known position with ``not values[w] <= values[w + 1]``: a
        # hint, re-verified on every use (see :attr:`converged`)
        self._descent = 0
        # guards the shared query counter: converged columns serve
        # concurrent readers, whose increments must not be lost
        self._stats_lock = threading.Lock()

    # -- materialisation ---------------------------------------------------------

    @property
    def materialised(self) -> bool:
        """True once the cracker column copy exists."""
        return self.values is not None

    def _set_arrays(self, values_buffer: np.ndarray, rowids_buffer: np.ndarray,
                    length: int) -> None:
        """Install the cracker arrays; the first ``length`` slots are live."""
        self._values_buffer = values_buffer
        self._rowids_buffer = rowids_buffer
        self._set_length(length)

    def _set_length(self, length: int) -> None:
        self._length = length
        self.values = self._values_buffer[:length]
        self.rowids = self._rowids_buffer[:length]

    def _materialise(self, counters: Optional[CostCounters]) -> None:
        """Copy the base as it is and number its rows, for a first use that
        is not one crack: pending updates to merge first, a fully open
        range, a batch's first pass and a sorted base latching
        :attr:`converged`."""
        if self.materialised:
            return
        size = len(self._base)
        self._set_arrays(
            np.array(self._base, copy=True),
            np.arange(self.rowid_base, self.rowid_base + size, dtype=np.int64),
            size,
        )
        self._charge_copy(counters)

    def _crack_cold(self, low: Optional[float], high: Optional[float],
                    counters: Optional[CostCounters]) -> Tuple[int, int]:
        """The first crack of an unmaterialised column (at least one bound),
        building the cracker arrays from the base already cracked; returns
        the qualifying region.  Arrays, index and charges are those of
        :meth:`_materialise` followed by ``crack_range``."""
        values, rowids, start, end = crack_cold(self._base, self.index, low, high,
                                                counters)
        if self.rowid_base:
            rowids += self.rowid_base
        self._set_arrays(values, rowids, len(values))
        self._charge_copy(counters)
        return start, end

    def _charge_copy(self, counters: Optional[CostCounters]) -> None:
        """What the cracker column's copy of the base costs, charged once
        its arrays are built: to the operation that built them on a
        read-only column, to none on an updatable one."""
        if counters is not None and not self.supports_updates:
            counters.record_scan(self._length)
            counters.record_move(self._length)
            counters.record_allocation(self.values.nbytes + self.rowids.nbytes)

    def __len__(self) -> int:
        """Number of currently visible rows (merged + pending inserts).

        Every queued delete targets a merged row (deleting a still-pending
        insert cancels it instead), so the pending-delete count is exactly
        the number of merged-but-deleted rows — O(1).
        """
        return (self._length + len(self._pending_insert_values)
                - len(self._delete_queue_rowids))

    @property
    def pending_inserts(self) -> int:
        return len(self._pending_insert_values)

    @property
    def pending_deletes(self) -> int:
        return len(self._delete_queue_rowids)

    @property
    def converged(self) -> bool:
        """True once the cracker column is fully sorted and nothing is pending.

        A converged column answers by pure binary search over its sorted
        values (see :meth:`_sorted_range`) and does not mutate itself:
        it is read-only under selection, which the session's lock protocol
        (:mod:`repro.engine.concurrency`) exploits to let concurrent
        ``execute`` callers read it without a path lock.  The answer is exact — what
        :meth:`is_fully_sorted` would say — yet cheap enough for the
        per-query classification: one adjacent pair out of order proves
        "not sorted", so the column keeps the position of one such pair (the
        *descent witness*) and re-checks it with a single comparison.  A
        crack, a ripple or a buffer growth may make the witness stale; that
        is harmless, because it is only ever a hint — bounds-checked,
        re-verified, and replaced by :meth:`_has_descent` when it no longer
        holds.  Finding no descent anywhere is the proof of sortedness and
        is latched: cracks only ever add order, so a sorted cracker column
        stays sorted until an update is physically merged into it, which
        clears the latch.  The call reads the cracker column and writes the
        witness and the latch, so callers that may race a crack of this
        column (batch classification across concurrently issued batches)
        must evaluate it under the column's access-path lock — the
        sortedness of a mid-crack array is not meaningful.  An updatable
        column reads its base while unmaterialised, as the eager copy of it
        would read, and builds its arrays when it latches (a sorted base
        answers by binary search from then on); a read-only one latches
        only once its first query has built them.
        """
        if self._pending_insert_values or self._delete_queue_rowids:
            return False
        if (not self._converged and (self.materialised or self.supports_updates)
                and not self._has_descent()):
            self._materialise(None)
            self._converged = True
        return self._converged

    @property
    def reorganizes_on_read(self) -> bool:
        """Mutating until the cracker column is fully sorted.  An updatable
        column answers True for good: pending insert/delete queues merge on
        demand during any search."""
        return self.supports_updates or not self.converged

    #: the column itself, as ``benchmarks/e21_layers`` reads its piece count
    cracked = property(lambda self: self)

    def _has_descent(self, keys: Sequence[float] = ()) -> bool:
        """True when some adjacent pair is out of order with no key of
        ``keys`` (ascending) in ``(right, left]``; remembers where.  A pass
        cracking at the keys keeps such a pair adjacent and out of order.

        The search resumes at the old witness and wraps around, in windows
        that double in size: near a stale witness the next descent is
        usually a few elements away, and a full pass (a sorted column's
        first classification) costs no more than one vectorised comparison.
        """
        values = self.values if self.materialised else self._base
        pairs = len(values) - 1
        witness = self._descent if 0 <= self._descent < pairs else 0
        if pairs > 0 and not values[witness] <= values[witness + 1] and (
                not keys or bisect_right(keys, values[witness].item())
                == bisect_right(keys, values[witness + 1].item())):
            return True
        pivots = np.array(keys, dtype=values.dtype) if keys else None
        for start, stop in ((witness + 1, pairs), (0, witness)):
            width = 64
            while start < stop:
                end = min(start + width, stop)
                left, right = values[start:end], values[start + 1:end + 1]
                ordered = left <= right  # or split apart by a key
                if keys:
                    ordered |= (np.searchsorted(pivots, left, side="right")
                                != np.searchsorted(pivots, right, side="right"))
                first = int(np.argmin(ordered))  # the first False, if any
                if not ordered[first]:
                    self._descent = start + first
                    return True
                start, width = end, 2 * width
        return False

    def _sorted_range(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters],
    ) -> Tuple[int, int]:
        """Qualifying region of a *converged* column: two binary searches.

        Charges the same navigation costs a full index charges per probed
        bound; no data moves and no boundary is added, so the call is free
        of side effects and safe under concurrent readers.
        """
        n = len(self.values)
        probes = 0
        if low is None:
            start = 0
        else:
            start = lower_bound(self.values, low)
            probes += 1
        if high is None:
            end = n
        else:
            end = lower_bound(self.values, high)
            probes += 1
        if counters is not None and probes:
            counters.record_comparisons(probes * binary_search_count(n))
            counters.record_random_access(probes)
        return start, max(start, end)

    @property
    def nbytes(self) -> int:
        """Bytes of auxiliary storage held (cracker column, rowids, queues).

        The arrays count from the operation that builds them; they are
        exactly column-sized until the first pending insert is merged, and
        from then on carry spare capacity for the next ones.
        """
        pending = (len(self._pending_insert_values) + len(self._delete_queue_rowids)
                   + len(self._inserted_values)) * 16
        if not self.materialised:
            return pending
        return int(self._values_buffer.nbytes + self._rowids_buffer.nbytes + pending)

    @property
    def piece_count(self) -> int:
        """Number of pieces in the cracker index."""
        return self.index.piece_count

    def pieces(self) -> List[Piece]:
        """Pieces of the cracker column (for inspection and tests)."""
        return self.index.pieces()

    # -- row identifiers ------------------------------------------------------------

    def _is_original(self, rowid: int) -> bool:
        """True when ``rowid`` identifies a row of the base column."""
        return self.rowid_base <= rowid < self.rowid_base + len(self._base)

    def knows_rowid(self, rowid: int) -> bool:
        """True when ``rowid`` belongs to this column (a base row or a live insert).

        :meth:`insert` refuses a ``rowid`` it knows and :meth:`delete` one
        it does not; rowids of fully removed rows (cancelled pending
        inserts, merged deletes) are unknown again.
        """
        return self._is_original(rowid) or rowid in self._inserted_values

    def _merged_value(self, rowid: int) -> float:
        """Value of a live base row: it can move around the cracker column
        but never changes, so it is read from the base."""
        if rowid in self._removed_base_rowids:
            raise KeyError(f"unknown row identifier {rowid}")
        return self._base.item(rowid - self.rowid_base)

    # -- updates -----------------------------------------------------------------

    def check_insertable(self, value: float) -> None:
        """Raise when ``value`` cannot be stored in this column (the rule is
        :func:`~repro.columnstore.types.exact_key`)."""
        exact_key(self._base.dtype, value, self.name)

    def insert(self, value: float, counters: Optional[CostCounters] = None,
               rowid: Optional[int] = None) -> int:
        """Queue the insertion of ``value``; returns its new row identifier.

        ``rowid`` lets the owner of the rows assign the identifier — the
        session passes the row's position in its table; it must be fresh
        and outside the base row range.
        """
        value = exact_key(self._base.dtype, value, self.name)
        if rowid is None:
            rowid = self._next_rowid
            self._next_rowid += 1
        else:
            rowid = int(rowid)
            if self.knows_rowid(rowid):
                raise ValueError(f"row identifier {rowid} is already in use")
            self._next_rowid = max(self._next_rowid, rowid + 1)
        self._pending_insert_values.append(value)
        self._pending_insert_rowids.append(rowid)
        self._pending_insert_rowid_set.add(rowid)
        self._insert_index.add(value)
        self._inserted_values[rowid] = value
        if counters is not None:
            counters.record_move(1)
        return rowid

    def delete(self, rowid: int, counters: Optional[CostCounters] = None) -> None:
        """Queue the deletion of the row identified by ``rowid``."""
        pending = self._pending_delete_rowids
        slot = bisect_left(pending, rowid)
        if slot < len(pending) and pending[slot] == rowid:
            return
        if not self.knows_rowid(rowid):
            raise KeyError(f"unknown row identifier {rowid}")
        # deleting a still-pending insert simply cancels it
        if rowid in self._pending_insert_rowid_set:
            position = self._pending_insert_rowids.index(rowid)
            self._insert_index.remove(position, self._pending_insert_values[position])
            del self._pending_insert_rowids[position]
            del self._pending_insert_values[position]
            self._pending_insert_rowid_set.discard(rowid)
            del self._inserted_values[rowid]
            return
        value = self._inserted_values.get(rowid)
        if value is None:
            value = self._merged_value(rowid)
        pending.insert(slot, rowid)
        self._delete_queue_rowids.append(rowid)
        self._delete_queue_values.append(value)
        self._delete_index.add(value)
        if counters is not None:
            counters.record_move(1)

    def delete_base_rows(self, rowids: np.ndarray) -> None:
        """Queue the deletion of the base rows ``rowids`` (sorted, distinct)
        on a column nothing was queued in or merged into yet: the queues,
        index and counters :meth:`delete` of each would leave, from one
        gather of the base and one sort.  ``set_indexing`` hands it a table's
        tombstones."""
        rowids = np.asarray(rowids, dtype=np.int64)
        if not len(rowids):
            return
        if self._pending_insert_values or self._delete_queue_rowids or self.merges_performed:
            raise RuntimeError(
                "delete_base_rows needs a column with nothing queued or merged")
        if np.any(rowids[1:] <= rowids[:-1]):
            raise ValueError("delete_base_rows takes sorted, distinct rowids")
        first, last = int(rowids[0]), int(rowids[-1])
        for rowid in (first, last):
            if not self._is_original(rowid):
                raise KeyError(f"unknown row identifier {rowid}")
        queue = self._delete_queue_values
        values = self._base[rowids - self.rowid_base].astype(queue.typecode, copy=False)
        queue.frombytes(memoryview(values).cast("B"))
        self._delete_queue_rowids.frombytes(memoryview(rowids).cast("B"))
        self._delete_index.fill(values)
        self._pending_delete_rowids.frombytes(memoryview(rowids).cast("B"))

    def update(self, rowid: int, new_value: float,
               counters: Optional[CostCounters] = None) -> int:
        """Update = delete old row + insert new value; returns the new rowid.

        The new value is validated before the delete is queued, so a
        rejected value leaves the old row untouched.
        """
        self.check_insertable(new_value)
        self.delete(rowid, counters)
        return self.insert(new_value, counters)

    # -- ripple merges --------------------------------------------------------------

    def _ensure_capacity(self, extra: int) -> None:
        """Make room for ``extra`` more merged rows behind the live region.

        The arrays are exactly column-sized until the first merged insert,
        and grow by a fifth whenever they run out of spare slots.
        """
        needed = self._length + extra
        capacity = len(self._values_buffer)
        if needed <= capacity:
            return
        new_capacity = max(needed, 16, int(capacity * 1.2))
        length = self._length

        def grown(buffer: np.ndarray) -> np.ndarray:
            larger = np.empty(new_capacity, dtype=buffer.dtype)
            larger[:length] = buffer[:length]
            return larger

        # drop the live views and replace one buffer at a time, so each old
        # buffer is freed before the next allocation
        self.values = self.rowids = None
        self._values_buffer = grown(self._values_buffer)
        self._rowids_buffer = grown(self._rowids_buffer)
        self._set_length(length)

    def _ripple_insert_one(self, value: float, rowid: int,
                           counters: Optional[CostCounters]) -> None:
        """Physically place one value into its piece via ripple shifts."""
        self._ensure_capacity(1)
        # the pieces from the target on change order: a sorted column stops
        # being one
        self._converged = False
        ripple_insert_value(
            self._values_buffer, self._rowids_buffer, self._length, value, rowid,
            self.index.positions_for_values_above(value), counters,
        )
        self._set_length(self._length + 1)
        self.index.shift_positions_for_values_above(value, +1)

    def _ripple_delete_one(self, rowid: int, value: float,
                           counters: Optional[CostCounters]) -> bool:
        """Physically remove one row from its piece via ripple shifts."""
        target = self.index.piece_for_value(value)
        segment_rowids = self.rowids[target.start : target.end]
        offsets = np.flatnonzero(segment_rowids == rowid)
        if counters is not None:
            counters.record_scan(target.size)
        if len(offsets) == 0:
            return False
        position = target.start + int(offsets[0])
        self._converged = False
        # fill the hole with the last element of the target piece, then let
        # the hole ripple right through every subsequent piece.
        ripple_delete_position(
            self._values_buffer, self._rowids_buffer, position, self._length,
            self.index.positions_for_values_above(value), counters,
        )
        self._set_length(self._length - 1)
        self.index.shift_positions_for_values_above(value, -1)
        return True

    # -- merge-on-demand -----------------------------------------------------------

    def _qualifying_pending(self, low, high) -> Tuple[np.ndarray, np.ndarray]:
        """Indices of the pending inserts / pending deletes inside the range,
        in arrival order: two bisects of each queue's index, plus the
        entries that qualify."""
        return (self._insert_index.within(low, high),
                self._delete_index.within(low, high))

    def _merge_pending(self, low, high, counters: Optional[CostCounters]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge qualifying pending updates (policy dependent).

        The qualifying inserts and deletes are interleaved round-robin into
        one typed work queue (an int8 kind buffer and an int64 item buffer
        of queue indices, built with strided assignments) and dispatched by
        :meth:`_apply_ripple_batch`.  Returns what qualifies but stays
        pending — under the gradual policy, or a delete whose row was not
        found — for :meth:`_gather` to account for: indices of pending
        inserts and rowids of pending deletes.
        """
        pending_total = (
            len(self._pending_insert_values) + len(self._delete_queue_rowids)
        )
        if counters is not None and pending_total:
            # the modelled decision scans every pending entry, whether or
            # not anything ends up qualifying (see the module docstring)
            counters.record_comparisons(pending_total)
        # (every queued delete targets a merged row: deleting a still-pending
        # insert cancels it instead)
        insert_indices, delete_indices = self._qualifying_pending(low, high)

        # round-robin interleave: lead[0], follow[0], lead[1], ... with the
        # longer queue's tail appended once the shorter runs out
        insert_count = len(insert_indices)
        delete_count = len(delete_indices)
        if not insert_count + delete_count:
            return _NOTHING_PENDING, _NOTHING_PENDING
        paired = min(insert_count, delete_count)
        lead, follow = (_KIND_INSERT, insert_indices), (_KIND_DELETE, delete_indices)
        if self._deletes_lead:
            lead, follow = follow, lead
        if self.policy == "gradual" and paired:
            # the next batch leads with the other kind: at a budget of one,
            # qualifying inserts every query would otherwise starve deletes
            self._deletes_lead = not self._deletes_lead
        kinds = np.empty(insert_count + delete_count, dtype=np.int8)
        items = np.empty(insert_count + delete_count, dtype=np.int64)
        kinds[0 : 2 * paired : 2] = lead[0]
        kinds[1 : 2 * paired : 2] = follow[0]
        items[0 : 2 * paired : 2] = lead[1][:paired]
        items[1 : 2 * paired : 2] = follow[1][:paired]
        for kind, indices in (lead, follow):
            if len(indices) > paired:
                kinds[2 * paired :] = kind
                items[2 * paired :] = indices[paired:]

        if self._apply_ripple_batch(kinds, items, counters) == len(kinds):
            return _NOTHING_PENDING, _NOTHING_PENDING
        # something stayed behind: look again, the merged entries are gone
        insert_indices, delete_indices = self._qualifying_pending(low, high)
        rowids = np.frombuffer(self._delete_queue_rowids, dtype=np.int64)
        return insert_indices, rowids[delete_indices]

    @typed_kernel(buffers={"kinds": "int8", "items": "int64"})
    def _apply_ripple_batch(
        self,
        kinds: np.ndarray,
        items: np.ndarray,
        counters: Optional[CostCounters],
    ) -> int:
        """Dispatch one interleaved batch of pending updates to the ripple
        kernels; returns how many of them were merged.

        Deliberately per-element: each queue entry is a distinct physical
        reorganisation whose target piece depends on the value being merged
        — and changes the piece layout the next entry sees — so the dispatch
        cannot be batched without replaying the ripple dependency chain.
        The per-piece data movement inside each step *is* vectorized (the
        ripple kernels of :mod:`~repro.core.cracking.crack_engine`).

        Under the gradual policy one ``merge_batch`` budget is shared by
        inserts and deletes, served round-robin with the leading kind
        alternating between batches — at most ``merge_batch``
        pending updates in total are merged per query, and a steady stream
        of qualifying inserts cannot starve the pending deletes (or vice
        versa), so both queues always drain.
        """
        budget = self.merge_batch if self.policy == "gradual" else len(kinds)
        # merged entries leave their queue once the batch is through, so
        # the indices in ``items`` stay valid while it runs
        merged_inserts: List[int] = []
        merged_deletes: List[int] = []
        pending_deletes = self._pending_delete_rowids
        for position in range(len(kinds)):
            if budget <= 0:
                break
            kind = int(kinds[position])
            item = int(items[position])
            if kind == _KIND_INSERT:
                value = self._pending_insert_values[item]
                rowid = self._pending_insert_rowids[item]
                self._ripple_insert_one(value, rowid, counters)
                merged_inserts.append(item)
            else:
                rowid = self._delete_queue_rowids[item]
                value = self._delete_queue_values[item]
                if not self._ripple_delete_one(rowid, value, counters):
                    continue
                del pending_deletes[bisect_left(pending_deletes, rowid)]
                # a merged delete of an inserted row removes the row for
                # good: forget its value so the rowid becomes unknown (and
                # the bookkeeping doesn't grow with every insert ever made);
                # a base row is remembered as gone instead
                if self._inserted_values.pop(rowid, None) is None:
                    self._removed_base_rowids.add(rowid)
                merged_deletes.append(item)
            self.merges_performed += 1
            budget -= 1
        for index in sorted(merged_inserts, reverse=True):
            self._insert_index.remove(index, self._pending_insert_values.pop(index))
            self._pending_insert_rowid_set.discard(
                self._pending_insert_rowids.pop(index)
            )
        for index in sorted(merged_deletes, reverse=True):
            self._delete_index.remove(index, self._delete_queue_values[index])
            del self._delete_queue_rowids[index]
            del self._delete_queue_values[index]
        return len(merged_inserts) + len(merged_deletes)

    # -- the adaptive select operator ----------------------------------------------

    def _select(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters],
    ) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """One range selection (a checked range) of :meth:`search_many`.

        Builds the cracker column if need be — cracked as it is built
        (:meth:`_crack_cold`) when nothing is pending and a bound is given —
        merges the qualifying pending updates (per the configured policy),
        then cracks — or, on a column recognised as :attr:`converged`,
        binary-searches.  Returns
        the qualifying region ``[start, end)`` of the cracker column plus
        what the pending structures still hold inside the range (only
        under the gradual policy): indices of qualifying pending inserts
        and rowids of qualifying pending deletes.
        """
        with self._stats_lock:  # converged columns serve concurrent readers
            self.queries_processed += 1
        pending = bool(self._pending_insert_values or self._delete_queue_rowids)
        if not self.materialised:
            if not pending and (low is not None or high is not None):
                start, end = self._crack_cold(low, high, counters)
                return start, end, _NOTHING_PENDING, _NOTHING_PENDING
            self._materialise(counters)
        extra = excluded = _NOTHING_PENDING
        if pending:
            extra, excluded = self._merge_pending(low, high, counters)
        if self._converged:
            start, end = self._sorted_range(low, high, counters)
        else:
            start, end = crack_range(
                self.values, self.rowids, self.index, low, high, counters
            )
        return start, max(start, end), extra, excluded

    def search(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Identifiers of visible rows with ``low <= value < high``.

        Cracks the cracker column as a side effect — until the column has
        been recognised as :attr:`converged`, after which the answer is a
        pure binary search with no physical reorganisation.  Either bound
        may be ``None`` (unbounded).  For a column that was never updated
        the identifiers are positions into the base column (shifted by
        ``rowid_base``).  A batch of one: :meth:`search_many`.
        """
        return self.search_many([(low, high)], [counters])[0]

    def search_many(
        self,
        ranges: Sequence[Tuple[Optional[float], Optional[float]]],
        counters_list: Sequence[Optional[CostCounters]],
    ) -> List[np.ndarray]:
        """The answers to ``ranges`` in order, with ``counters_list[i]``
        charged for range ``i``: the select operator, and the one place that
        chooses its kernel.

        Every range is checked before anything is cracked.  Two or more
        ranges on a :attr:`batchable` column are answered by one pass over
        the pieces they touch (:func:`crack_many`) unless the pass might
        sort the column before the last range (:meth:`locate_batch`); that
        batch, a lone range, a column with pending updates and a converged
        one go range by range
        (:meth:`_select`: a crack-in-two or crack-in-three per range, or a
        binary search).  Answers, counters and the state left behind are
        the same either way.  :attr:`converged` is asked before anything
        moves, whoever calls: a sorted column latches here, not only when
        a session's lock classifier happened to ask first.  Range by range
        it is asked again before every range, where the next ``search``
        would ask it: a merge that drains the pending queues mid-batch
        lets the column latch at the same range as in k searches.
        """
        check_ranges(ranges)
        bounds = (self.locate_batch(ranges)
                  if not self.converged and len(ranges) > 1 and self.batchable else None)
        if bounds is not None:
            answers, charged = self.crack_batch(bounds)
            charge_batch(counters_list, charged)
            return answers
        answers = []
        for (low, high), counters in zip(ranges, counters_list):
            if answers:
                self.converged  # for its latch, as the next search would
            # each selection may rebind the arrays its gather reads
            answers.append(self._gather(self._select(low, high, counters), counters))
        return answers

    @property
    def batchable(self) -> bool:
        """True when :meth:`crack_batch` can answer a batch: nothing pending
        to merge and not answering by binary search (asks, and so latches,
        :attr:`converged`)."""
        return not (self.converged or self._pending_insert_values
                    or self._delete_queue_rowids)

    def locate_batch(self, ranges: Sequence[Tuple[Optional[float], Optional[float]]]
                     ) -> Optional[BatchBounds]:
        """Where a batch's bounds fall; reads the index, changes nothing.
        Its ``work`` is what :meth:`crack_work` is to one search: the whole
        slice while unmaterialised, else every piece holding a new bound.
        None when the batch might sort the column before its last range,
        where k searches would latch :attr:`converged`: no pair out of order
        survives the pass (:meth:`_has_descent` of the bounds), and a column
        unsorted after the pass was unsorted at every range (cracks only add
        order)."""
        bounds = locate_bounds(self.index, ranges)
        if not self._has_descent(bounds.keys):
            return None
        if not self.materialised:
            bounds = bounds._replace(work=len(self._base))
        return bounds

    def crack_batch(self, bounds: BatchBounds) -> Tuple[List[np.ndarray], np.ndarray]:
        """Answer a located batch of a :attr:`batchable` column in one pass:
        the answers and the :data:`CHARGE_COLUMNS` charge matrix, with the
        copy of an unmaterialised column charged to the first query."""
        with self._stats_lock:
            self.queries_processed += len(bounds.ranges)
        copy = CostCounters()
        self._materialise(copy)
        answers, charged = crack_many(self.values, self.rowids, self.index, bounds)
        charged[0] += (copy.tuples_scanned, copy.tuples_moved, 0, 0,
                       copy.bytes_allocated)
        return answers, charged

    def _gather(self, selection: Tuple[int, int, np.ndarray, np.ndarray],
                counters: Optional[CostCounters]) -> np.ndarray:
        """The row identifiers of a :meth:`_select` result: the qualifying
        region minus pending deletes plus pending inserts."""
        start, end, extra, excluded = selection
        if counters is not None:
            counters.record_scan(end - start)
        result = self.rowids[start:end]
        if len(excluded):
            result = result[~np.isin(result, excluded)]
        if len(extra):
            queued = np.frombuffer(self._pending_insert_rowids, dtype=np.int64)
            result = np.concatenate([result, queued[extra]])
        return result.copy()

    def crack_work(self, low: Optional[float], high: Optional[float]) -> int:
        """Elements a :meth:`search` for ``[low, high)`` would physically
        move in the cracker column; reads the index, changes nothing.

        The whole slice while unmaterialised (the first crack splits the one
        piece while building the cracker column; the copy charged beside it
        is no pass of its own), the sizes of the distinct
        pieces holding a bound that is not yet a boundary after that, 0 once
        converged.  It is what the cracks charge to ``tuples_moved``; ripple
        merges of pending updates are not counted.  The partitioned owner
        sizes its fan-out with it.
        """
        if not self.materialised:
            return len(self._base)
        if self._converged:
            return 0
        return self.index.crack_work(low, high)

    # -- maintenance / inspection -----------------------------------------------------

    def crack_at(
        self,
        pivot: float,
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Introduce a boundary at ``pivot`` without answering a query
        (tests that need a particular piece layout)."""
        if not self.materialised:
            return self._crack_cold(pivot, None, counters)[0]
        return crack_value(self.values, self.rowids, self.index, pivot, counters)

    def is_fully_sorted(self) -> bool:
        """True when the cracker column is completely sorted: the O(n) oracle
        for what :attr:`converged` answers without a pass (tests, inspection).
        An unmaterialised updatable column reads its base, as
        :attr:`converged` does."""
        if not self.materialised and not self.supports_updates:
            return False
        values = self.values if self.materialised else self._base
        return bool(np.all(values[:-1] <= values[1:])) if len(values) > 1 else True

    def visible_values(self) -> np.ndarray:
        """Multiset of currently visible values (reference for tests).  An
        unmaterialised column answers from its base, whose rows are the
        merged ones (every queued delete is of a base row there)."""
        deleted = np.frombuffer(self._delete_queue_rowids, dtype=np.int64)
        if self.materialised:
            merged = self.values[~np.isin(self.rowids, deleted)]
        else:
            merged = np.delete(self._base, deleted - self.rowid_base)
        pending = np.asarray(self._pending_insert_values, dtype=merged.dtype)
        return np.concatenate([merged, pending]) if len(pending) else merged.copy()

    @property
    def structure_description(self) -> str:
        description = f"cracking: {self.piece_count} pieces"
        if self.supports_updates:
            description += (f", {self.pending_inserts}+{self.pending_deletes}"
                            f" pending ({self.policy})")
        return description

    def check_invariants(self) -> None:
        """Verify piece bounds, rowid alignment and content preservation (test helper)."""
        self.index.check_invariants()
        assert self.index.size == self._length
        # each queue's index holds its keyed entries by value, ties in
        # arrival order, and one ascending arrival number per queue entry
        for queue, index in ((self._pending_insert_values, self._insert_index),
                             (self._delete_queue_values, self._delete_index)):
            values = np.frombuffer(queue, dtype=queue.typecode)
            queued = np.frombuffer(index.queued, dtype=np.int64)
            assert len(queued) == len(values), "index and queue lengths differ"
            assert np.all(queued[1:] > queued[:-1]), "arrivals out of queue order"
            keyed = ~np.isnan(values) if values.dtype.kind == "f" else slice(None)
            order = np.argsort(values[keyed], kind="stable")
            assert np.array_equal(np.frombuffer(index.keys, dtype=queue.typecode),
                                  values[keyed][order]), "index keys differ from the queue"
            assert np.array_equal(np.frombuffer(index.arrivals, dtype=np.int64),
                                  queued[keyed][order]), "index arrivals differ from the queue"
        if not self.materialised:
            return
        assert len(self.values) == len(self.rowids) == self._length
        assert len(np.unique(self.rowids)) == self._length, (
            "rowids contain duplicates"
        )
        # every base row still merged holds its base value ...
        original = (self.rowids >= self.rowid_base) & (
            self.rowids < self.rowid_base + len(self._base)
        )
        assert np.array_equal(
            self.values[original],
            self._base[self.rowids[original] - self.rowid_base],
        ), "cracker column misaligned with the base column"
        if not self.merges_performed:
            # ... and until an update is merged the cracker column is a
            # permutation of the base: same values, every rowid once
            assert original.all() and self._length == len(self._base), (
                "rows outside the column's base row range"
            )
        # every merged inserted row holds the value it was inserted with
        for position in np.flatnonzero(
            np.isin(self.rowids, np.fromiter(self._inserted_values.keys(),
                                             dtype=np.int64,
                                             count=len(self._inserted_values)))
        ).tolist():
            assert (self.values[position]
                    == self._inserted_values[int(self.rowids[position])])
        # piece bounds respected
        for piece in self.index.pieces():
            segment = self.values[piece.start : piece.end]
            if len(segment) == 0:
                continue
            if piece.low is not None:
                assert segment.min() >= piece.low, f"piece {piece} violates low bound"
            if piece.high is not None:
                assert segment.max() < piece.high, f"piece {piece} violates high bound"
