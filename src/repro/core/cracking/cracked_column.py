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
  round-robin, so neither class can starve the other — and answer the
  remainder directly from the pending structures, spreading the
  maintenance cost over more queries.

Cost accounting follows the convention established for the cracking
kernels: whenever the pending structures are non-empty, a query is charged
one comparison per pending entry for deciding which updates qualify — the
scan happens whether or not anything qualifies.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis_tools.guards import charges, guarded_by, typed_kernel
from repro.columnstore.bulk import binary_search_count, filter_range, lower_bound
from repro.columnstore.column import Column
from repro.columnstore.types import exact_key
from repro.core.cracking.cracker_index import CrackerIndex, Piece
from repro.core.cracking.crack_engine import (
    crack_range,
    crack_value,
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


@guarded_by(queries_processed="_stats_lock")
class CrackedColumn:
    """Cracker column + cracker index + adaptive select operator + pending updates.

    Parameters
    ----------
    column:
        The base column (or a raw array).  The cracked column keeps its own
        copy — the cracker column — plus an aligned array of row
        identifiers, so search results identify rows of the *base* column.
    counters:
        Optional cost counters charged with the initial copy (the
        "initialization cost" of the first query is the copy plus the first
        crack; callers that want to charge the copy to the first query pass
        ``lazy_copy=True`` instead).
    lazy_copy:
        When True, the cracker column copy is deferred to the first
        operation that needs it (a :meth:`search`, a crack, or an update)
        and charged to that operation's counters, matching how the
        literature accounts the first-query overhead.
    policy / merge_batch:
        How pending updates are merged: ``"ripple"`` merges every pending
        update a query's range qualifies, ``"gradual"`` at most
        ``merge_batch`` per query (see the module docstring).
    rowid_base:
        Identifier of the first base row.  Rows of the base column keep
        their position shifted by ``rowid_base`` as identifier; rows
        inserted later receive fresh identifiers starting at
        ``rowid_base + len(column)``, or an identifier supplied by the
        caller.  A partitioned owner uses this to number every shard's rows
        in global (base-column) coordinates, so per-partition answers need
        no shifting and externally assigned insert identifiers stay
        globally unique.

    :meth:`search` returns identifiers of all *visible* qualifying rows
    (base rows minus deleted plus inserted).
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        counters: Optional[CostCounters] = None,
        lazy_copy: bool = True,
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
        self.policy = policy
        self.merge_batch = int(merge_batch)
        self.rowid_base = int(rowid_base)
        self._base = base
        # number of *merged* rows: the live length of the cracker column
        self._length = len(base)
        # None = base rows are the contiguous identifier range
        # [rowid_base, rowid_base + len(base)); a repartitioning split
        # scatters a fragment's base rows, so fragments carry them as an
        # explicit set instead (see :meth:`_from_parts`)
        self._original_rowids: Optional[set] = None
        self._next_rowid = self.rowid_base + len(base)
        # the cracker column and its row identifiers (None until
        # materialised): ``values``/``rowids`` are the live region,
        # the buffers may hold spare capacity for ripple inserts behind it
        self.values: Optional[np.ndarray] = None
        self.rowids: Optional[np.ndarray] = None
        self._values_buffer: Optional[np.ndarray] = None
        self._rowids_buffer: Optional[np.ndarray] = None
        self.index = CrackerIndex(len(base))
        # pending structures (only ever non-empty on a materialised column):
        # typed queues in arrival order, which is the merge order, each
        # beside a set that answers membership in O(1)
        self._pending_insert_values = _value_queue(base.dtype)
        self._pending_insert_rowids = array("q")
        self._pending_insert_rowid_set: set = set()
        self._delete_queue_values = _value_queue(base.dtype)
        self._delete_queue_rowids = array("q")
        self._pending_delete_rowid_set: set = set()
        # values of rows inserted at any point (needed to delete them later)
        self._inserted_values: Dict[int, float] = {}
        # base rows whose delete has been merged: their value stays in the
        # base, so this is what tells a removed base row from a live one
        self._removed_base_rowids: set = set()

        self.queries_processed = 0
        self.merges_performed = 0
        # once True, search answers by pure binary search and never mutates
        # the cracker column again (see :attr:`converged`)
        self._converged = False
        # last known position with ``not values[w] <= values[w + 1]``: a
        # hint, re-verified on every use (see :attr:`converged`)
        self._descent = 0
        # guards the shared query counter: converged columns serve
        # concurrent readers, whose increments must not be lost
        self._stats_lock = threading.Lock()
        if not lazy_copy:
            self._materialise(counters)

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
        if self.materialised:
            return
        size = len(self._base)
        self._set_arrays(
            np.array(self._base, copy=True),
            np.arange(self.rowid_base, self.rowid_base + size, dtype=np.int64),
            size,
        )
        if counters is not None:
            counters.record_scan(size)
            counters.record_move(size)
            counters.record_allocation(self.values.nbytes + self.rowids.nbytes)

    def __len__(self) -> int:
        """Number of currently visible rows (merged + pending inserts).

        Every queued delete targets a merged row (deleting a still-pending
        insert cancels it instead), so the pending-delete count is exactly
        the number of merged-but-deleted rows — O(1), which matters because
        adaptive repartitioning polls partition sizes on every update.
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
    def _pending_delete_rowids(self) -> Dict[int, float]:
        """The queued deletes as rowid -> value, in arrival order (what a
        split or a merge routes to the fragments; inspection)."""
        return dict(zip(self._delete_queue_rowids, self._delete_queue_values))

    @property
    def converged(self) -> bool:
        """True once the cracker column is fully sorted and nothing is pending.

        A converged column answers by pure binary search over its sorted
        values (see :meth:`_sorted_range`) and does not mutate itself:
        it is read-only under selection, which the batch scheduler
        (:mod:`repro.engine.concurrency`) exploits to fan concurrent
        queries out over it.  The answer is exact — what
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
        sortedness of a mid-crack array is not meaningful.
        """
        if self._pending_insert_values or self._delete_queue_rowids:
            return False
        if not self._converged and self.materialised and not self._has_descent():
            self._converged = True
        return self._converged

    def _has_descent(self) -> bool:
        """True when some adjacent pair is out of order; remembers where.

        The search resumes at the old witness and wraps around, in windows
        that double in size: near a stale witness the next descent is
        usually a few elements away, and a full pass (a sorted column's
        first classification) costs no more than one vectorised comparison.
        """
        values = self.values
        pairs = len(values) - 1
        witness = self._descent if 0 <= self._descent < pairs else 0
        if pairs > 0 and not values[witness] <= values[witness + 1]:
            return True
        for start, stop in ((witness + 1, pairs), (0, witness)):
            width = 64
            while start < stop:
                end = min(start + width, stop)
                ordered = values[start:end] <= values[start + 1:end + 1]
                first = int(np.argmin(ordered))  # the first False, if any
                if not ordered[first]:
                    self._descent = start + first
                    return True
                start, width = end, 2 * width
        return False

    def _count_query(self) -> None:
        """Thread-safely note one processed query (converged columns are
        served by concurrent readers; a bare ``+= 1`` could lose counts)."""
        with self._stats_lock:
            self.queries_processed += 1

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

        The arrays are exactly column-sized until the first pending insert
        is merged; from then on they carry spare capacity for the next ones.
        """
        if not self.materialised:
            return 0
        pending = (len(self._pending_insert_values) + len(self._delete_queue_rowids)
                   + len(self._inserted_values)) * 16
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
        if self._original_rowids is not None:
            return rowid in self._original_rowids
        return self.rowid_base <= rowid < self.rowid_base + len(self._base)

    def knows_rowid(self, rowid: int) -> bool:
        """True when ``rowid`` belongs to this column (a base row or a live insert).

        Used by the partitioned owner to route deletes of inserted rows;
        rowids of fully removed rows (cancelled pending inserts, merged
        deletes) are unknown again.
        """
        return self._is_original(rowid) or rowid in self._inserted_values

    def _merged_value(self, rowid: int) -> float:
        """Value of a live base row: it can move around the cracker column
        but never changes, so it is read from the base — except in a
        fragment, whose base is empty and which looks the row up instead."""
        if self._original_rowids is None:
            if rowid in self._removed_base_rowids:
                raise KeyError(f"unknown row identifier {rowid}")
            return self._base.item(rowid - self.rowid_base)
        positions = np.flatnonzero(self.rowids == rowid)
        if len(positions) == 0:
            raise KeyError(f"unknown row identifier {rowid}")
        return self.values[positions[0]].item()

    def value_of(self, rowid: int) -> float:
        """Current value of a visible row (base or inserted)."""
        if rowid in self._pending_delete_rowid_set:
            raise KeyError(f"row {rowid} has been deleted")
        if self._is_original(rowid):
            return self._merged_value(rowid)
        try:
            return self._inserted_values[rowid]
        except KeyError:
            raise KeyError(f"row {rowid} not found") from None

    # -- updates -----------------------------------------------------------------

    def check_insertable(self, value: float) -> None:
        """Raise when ``value`` cannot be stored in this column (the rule is
        :func:`~repro.columnstore.types.exact_key`)."""
        exact_key(self._base.dtype, value, self.name)

    def insert(self, value: float, counters: Optional[CostCounters] = None,
               rowid: Optional[int] = None) -> int:
        """Queue the insertion of ``value``; returns its new row identifier.

        ``rowid`` lets an external owner (the partitioned column) assign
        globally unique identifiers; it must be fresh and outside the
        base row range.
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
        self._materialise(counters)
        self._pending_insert_values.append(value)
        self._pending_insert_rowids.append(rowid)
        self._pending_insert_rowid_set.add(rowid)
        self._inserted_values[rowid] = value
        if counters is not None:
            counters.record_move(1)
        return rowid

    def delete(self, rowid: int, counters: Optional[CostCounters] = None) -> None:
        """Queue the deletion of the row identified by ``rowid``."""
        if rowid in self._pending_delete_rowid_set:
            return
        if not self.knows_rowid(rowid):
            raise KeyError(f"unknown row identifier {rowid}")
        # deleting a still-pending insert simply cancels it
        if rowid in self._pending_insert_rowid_set:
            position = self._pending_insert_rowids.index(rowid)
            del self._pending_insert_rowids[position]
            del self._pending_insert_values[position]
            self._pending_insert_rowid_set.discard(rowid)
            del self._inserted_values[rowid]
            return
        self._materialise(counters)
        value = self._inserted_values.get(rowid)
        if value is None:
            value = self._merged_value(rowid)
        self._pending_delete_rowid_set.add(rowid)
        self._delete_queue_rowids.append(rowid)
        self._delete_queue_values.append(value)
        if counters is not None:
            counters.record_move(1)

    def update(self, rowid: int, new_value: float,
               counters: Optional[CostCounters] = None) -> int:
        """Update = delete old row + insert new value; returns the new rowid.

        The new value is validated before the delete is queued, so a
        rejected value leaves the old row untouched.
        """
        self.check_insertable(new_value)
        self.delete(rowid, counters)
        return self.insert(new_value, counters)

    # -- repartitioning support -----------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        values: np.ndarray,
        rowids: np.ndarray,
        original_rowids: Iterable[int],
        index: CrackerIndex,
        *,
        policy: str,
        merge_batch: int,
        next_rowid: int,
        pending_inserts: Sequence[Tuple[float, int]],
        pending_deletes: Dict[int, float],
        inserted_values: Dict[int, float],
        merges_performed: int = 0,
        name: str = "",
    ) -> "CrackedColumn":
        """Build a column fragment from pre-cracked state (split/merge helper).

        ``values``/``rowids`` are the merged cracker arrays (globally
        numbered), ``original_rowids`` the subset of rowids that identify
        base rows, and ``index`` must describe exactly ``len(values)``
        elements.  A fragment is materialised from birth and its own base
        is empty: its base rows are an arbitrary subset of its ancestors'.
        """
        if len(values) != len(rowids) or index.size != len(values):
            raise ValueError("fragment arrays and index sizes must agree")
        fragment = cls(values[:0], name=name, policy=policy, merge_batch=merge_batch)
        fragment._original_rowids = set(int(r) for r in original_rowids)
        fragment._next_rowid = int(next_rowid)
        fragment.index = index
        fragment._set_arrays(values, rowids, len(values))
        fragment._pending_insert_values.extend(v for v, _ in pending_inserts)
        fragment._pending_insert_rowids.extend(r for _, r in pending_inserts)
        fragment._pending_insert_rowid_set = set(fragment._pending_insert_rowids)
        fragment._pending_delete_rowid_set = set(pending_deletes)
        fragment._delete_queue_rowids.extend(pending_deletes)
        fragment._delete_queue_values.extend(pending_deletes.values())
        fragment._inserted_values = dict(inserted_values)
        fragment.merges_performed = int(merges_performed)
        return fragment

    def _original_rowid_subset(self, rowids: np.ndarray) -> set:
        """The base-row identifiers among ``rowids``."""
        if self._original_rowids is not None:
            return self._original_rowids.intersection(rowids.tolist())
        mask = (rowids >= self.rowid_base) & (
            rowids < self.rowid_base + len(self._base)
        )
        return set(rowids[mask].tolist())

    @charges("comparisons", "movements", "allocations")
    def split_at(
        self, pivot: float, counters: Optional[CostCounters] = None
    ) -> Tuple["CrackedColumn", "CrackedColumn"]:
        """Split into two independent columns around ``pivot``.

        The merged region is cracked at ``pivot`` (values below it on the
        left), the cracker index is cut at the resulting boundary, and every
        pending insert/delete is routed to the side its value belongs to —
        so the union of the two fragments is indistinguishable from the
        parent: same visible rows, same rowids, same refinement.  The parent
        must not be used afterwards.
        """
        length = self._length
        mid = self.crack_at(pivot, counters)
        left_index, right_index = self.index.split_at_boundary(pivot)
        left_values = self.values[:mid].copy()
        left_rowids = self.rowids[:mid].copy()
        right_values = self.values[mid:].copy()
        right_rowids = self.rowids[mid:].copy()
        if counters is not None:
            # carving the two fragments out touches every merged element
            counters.record_move(length)
            counters.record_allocation(
                left_values.nbytes + left_rowids.nbytes
                + right_values.nbytes + right_rowids.nbytes
            )
            pending_total = (
                len(self._pending_insert_values) + len(self._delete_queue_rowids)
            )
            if pending_total:
                counters.record_comparisons(pending_total)
        # pending updates and live inserted rows are routed by value, which
        # matches the crack: merged rows with value < pivot sit on the left
        left_pending_inserts, right_pending_inserts = [], []
        for value, rowid in zip(self._pending_insert_values,
                                self._pending_insert_rowids):
            side = left_pending_inserts if value < pivot else right_pending_inserts
            # routing a pending entry re-queues it, it does not touch the
            # cracker arrays (the record_move(length) above covers the carve)
            side.append((value, rowid))  # reproperf: ignore[PF001, PF003]
        pending_deletes = self._pending_delete_rowids
        left_pending_deletes = {
            r: v for r, v in pending_deletes.items() if v < pivot
        }
        right_pending_deletes = {
            r: v for r, v in pending_deletes.items() if v >= pivot
        }
        left_inserted = {
            r: v for r, v in self._inserted_values.items() if v < pivot
        }
        right_inserted = {
            r: v for r, v in self._inserted_values.items() if v >= pivot
        }
        common = dict(
            policy=self.policy, merge_batch=self.merge_batch,
            next_rowid=self._next_rowid,
        )
        left = CrackedColumn._from_parts(
            left_values, left_rowids, self._original_rowid_subset(left_rowids),
            left_index, pending_inserts=left_pending_inserts,
            pending_deletes=left_pending_deletes, inserted_values=left_inserted,
            merges_performed=self.merges_performed,
            name=f"{self.name}<{pivot}" if self.name else "", **common,
        )
        right = CrackedColumn._from_parts(
            right_values, right_rowids, self._original_rowid_subset(right_rowids),
            right_index, pending_inserts=right_pending_inserts,
            pending_deletes=right_pending_deletes, inserted_values=right_inserted,
            name=f"{self.name}>={pivot}" if self.name else "", **common,
        )
        return left, right

    @classmethod
    @charges("movements", "allocations")
    def merged(
        cls,
        left: "CrackedColumn",
        right: "CrackedColumn",
        pivot: float,
        counters: Optional[CostCounters] = None,
    ) -> "CrackedColumn":
        """Concatenate two *value-disjoint* columns back into one.

        Every value of ``left`` (merged or pending) must be strictly below
        ``pivot`` and every value of ``right`` at or above it; the merged
        column keeps one boundary at ``pivot`` (the per-side refinement is
        deliberately dropped — merges target cold partitions, whose
        refinement is no longer paying for itself).
        """
        left._materialise(counters)
        right._materialise(counters)
        values = np.concatenate([left.values, right.values])
        rowids = np.concatenate([left.rowids, right.rowids])
        index = CrackerIndex(len(values))
        if len(left.values) and len(right.values):
            index.add_boundary(pivot, len(left.values))
        if counters is not None:
            counters.record_move(len(values))
            counters.record_allocation(values.nbytes + rowids.nbytes)
        original = left._original_rowid_subset(left.rowids)
        original |= right._original_rowid_subset(right.rowids)
        pending_inserts = list(
            zip(left._pending_insert_values, left._pending_insert_rowids)
        ) + list(zip(right._pending_insert_values, right._pending_insert_rowids))
        pending_deletes = left._pending_delete_rowids
        pending_deletes.update(right._pending_delete_rowids)
        inserted = dict(left._inserted_values)
        inserted.update(right._inserted_values)
        return cls._from_parts(
            values, rowids, original, index,
            policy=left.policy, merge_batch=left.merge_batch,
            next_rowid=max(left._next_rowid, right._next_rowid),
            pending_inserts=pending_inserts, pending_deletes=pending_deletes,
            inserted_values=inserted,
            merges_performed=left.merges_performed + right.merges_performed,
            name=left.name or right.name,
        )

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

    @charges("scans")
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
        """Indices of the pending inserts / pending deletes inside the range.

        One range mask per queue, over a zero-copy view of it, so the
        indices come out in arrival order.  The views are locals: a queue
        cannot grow or shrink while a view of it is alive.
        """
        typecode = self._pending_insert_values.typecode
        inserts = np.frombuffer(self._pending_insert_values, dtype=typecode)
        deletes = np.frombuffer(self._delete_queue_values, dtype=typecode)
        return (filter_range(inserts, low, high), filter_range(deletes, low, high))

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
            # deciding what qualifies scans every pending entry, whether or
            # not anything ends up qualifying
            counters.record_comparisons(pending_total)
        # (every queued delete targets a merged row: deleting a still-pending
        # insert cancels it instead)
        insert_indices, delete_indices = self._qualifying_pending(low, high)

        # round-robin interleave: insert[0], delete[0], insert[1], ... with
        # the longer queue's tail appended once the shorter runs out
        insert_count = len(insert_indices)
        delete_count = len(delete_indices)
        if not insert_count + delete_count:
            return _NOTHING_PENDING, _NOTHING_PENDING
        paired = min(insert_count, delete_count)
        kinds = np.empty(insert_count + delete_count, dtype=np.int8)
        items = np.empty(insert_count + delete_count, dtype=np.int64)
        kinds[0 : 2 * paired : 2] = _KIND_INSERT
        kinds[1 : 2 * paired : 2] = _KIND_DELETE
        items[0 : 2 * paired : 2] = insert_indices[:paired]
        items[1 : 2 * paired : 2] = delete_indices[:paired]
        if insert_count > paired:
            kinds[2 * paired :] = _KIND_INSERT
            items[2 * paired :] = insert_indices[paired:]
        elif delete_count > paired:
            kinds[2 * paired :] = _KIND_DELETE
            items[2 * paired :] = delete_indices[paired:]

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

        Deliberately per-element (the one reasoned TB001 baseline entry):
        each queue entry is a distinct physical reorganisation whose target
        piece depends on the value being merged — and changes the piece
        layout the next entry sees — so the dispatch cannot be batched
        without replaying the ripple dependency chain.  The per-piece data
        movement inside each step *is* vectorized (the ripple kernels of
        :mod:`~repro.core.cracking.crack_engine`).

        Under the gradual policy one ``merge_batch`` budget is shared by
        inserts and deletes, served round-robin — at most ``merge_batch``
        pending updates in total are merged per query, and a steady stream
        of qualifying inserts cannot starve the pending deletes (or vice
        versa), so both queues always drain.
        """
        budget = self.merge_batch if self.policy == "gradual" else len(kinds)
        # merged entries leave their queue once the batch is through, so
        # the indices in ``items`` stay valid while it runs
        merged_inserts: List[int] = []
        merged_deletes: List[int] = []
        pending_deletes = self._pending_delete_rowid_set  # hoisted (PF002)
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
                pending_deletes.discard(rowid)
                # a merged delete of an inserted row removes the row for
                # good: forget its value so the rowid becomes unknown (and
                # the bookkeeping doesn't grow with every insert ever made);
                # a base row is remembered as gone instead (a fragment
                # finds out by looking: see :meth:`_merged_value`)
                if (self._inserted_values.pop(rowid, None) is None
                        and self._original_rowids is None):
                    self._removed_base_rowids.add(rowid)
                merged_deletes.append(item)
            self.merges_performed += 1
            budget -= 1
        for index in sorted(merged_inserts, reverse=True):
            del self._pending_insert_values[index]
            self._pending_insert_rowid_set.discard(
                self._pending_insert_rowids.pop(index)
            )
        for index in sorted(merged_deletes, reverse=True):
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
        """One range selection, shared by the three public operators.

        Materialises the cracker column if need be, merges the qualifying
        pending updates (per the configured policy), then cracks — or, on a
        column recognised as :attr:`converged`, binary-searches.  Returns
        the qualifying region ``[start, end)`` of the cracker column plus
        what the pending structures still hold inside the range (only
        under the gradual policy): indices of qualifying pending inserts
        and rowids of qualifying pending deletes.
        """
        self._count_query()
        if not self.materialised:
            self._materialise(counters)
        extra = excluded = _NOTHING_PENDING
        if self._pending_insert_values or self._delete_queue_rowids:
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
        ``rowid_base``).
        """
        selection = self._select(low, high, counters)  # may rebind the arrays
        return self._gather(self.rowids, self._pending_insert_rowids,
                            selection, counters)

    def search_values(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> np.ndarray:
        """Qualifying *values* rather than row identifiers (cracks as a side effect)."""
        selection = self._select(low, high, counters)  # may rebind the arrays
        return self._gather(self.values, self._pending_insert_values,
                            selection, counters)

    def _gather(self, merged: np.ndarray, pending: array,
                selection: Tuple[int, int, np.ndarray, np.ndarray],
                counters: Optional[CostCounters]) -> np.ndarray:
        """Copy one attribute (rowids or values) of a :meth:`_select` result:
        the qualifying region minus pending deletes plus pending inserts."""
        start, end, extra, excluded = selection
        if counters is not None:
            counters.record_scan(end - start)
        result = merged[start:end]
        if len(excluded):
            result = result[~np.isin(self.rowids[start:end], excluded)]
        if len(extra):
            queued = np.frombuffer(pending, dtype=pending.typecode)
            result = np.concatenate(
                [result, queued[extra].astype(result.dtype, copy=False)]
            )
        return result.copy()

    def count(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Number of qualifying rows (cracks as a side effect)."""
        start, end, extra, excluded = self._select(low, high, counters)
        return end - start - len(excluded) + len(extra)

    def crack_work(self, low: Optional[float], high: Optional[float]) -> int:
        """Elements a :meth:`search` for ``[low, high)`` would physically
        move in the cracker column; reads the index, changes nothing.

        The whole slice while unmaterialised (the first crack splits the one
        piece; the copy moves as many again), the sizes of the distinct
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
        """Introduce a boundary at ``pivot`` without answering a query.

        Used by repartitioning splits, and by tests that need a particular
        piece layout.
        """
        if not self.materialised:
            self._materialise(counters)
        return crack_value(self.values, self.rowids, self.index, pivot, counters)

    def is_fully_sorted(self) -> bool:
        """True when the cracker column is completely sorted: the O(n) oracle
        for what :attr:`converged` answers without a pass (tests, inspection)."""
        if not self.materialised:
            return False
        return bool(np.all(self.values[:-1] <= self.values[1:])) if len(self.values) > 1 else True

    def visible_values(self) -> np.ndarray:
        """Multiset of currently visible values (reference for tests)."""
        self._materialise(None)
        merged_mask = ~np.isin(
            self.rowids, np.frombuffer(self._delete_queue_rowids, dtype=np.int64)
        )
        merged = self.values[merged_mask]
        pending = np.asarray(self._pending_insert_values, dtype=merged.dtype)
        return np.concatenate([merged, pending]) if len(pending) else merged.copy()

    @property
    def structure_description(self) -> str:
        return f"cracking: {self.piece_count} pieces"

    def check_invariants(self) -> None:
        """Verify piece bounds, rowid alignment and content preservation (test helper)."""
        self.index.check_invariants()
        assert self.index.size == self._length
        if not self.materialised:
            return
        assert len(self.values) == len(self.rowids) == self._length
        assert len(np.unique(self.rowids)) == self._length, (
            "rowids contain duplicates"
        )
        if self._original_rowids is None:
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
                assert original.all() and self._length == len(self._base)
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
