"""The answer oracle: planned DML and a shadow ``key/pay/alive`` model of table ``t``.

Row identifiers follow the engine's rule: a row's identifier is its position
in the base columns, appends take the next position, an update is a delete
plus an append.  :class:`DmlPlanner` uses the rule to name every victim and
every assigned identifier ahead of time, so no planned operation can fail and
the identifier the engine returns can be checked without a model;
:class:`ShadowTable` applies the same operations to the visible state.

The model is built in set-up and consulted outside every timed span.  The
generated rows are indexed once by a stable sort of their keys, so a range
query costs two binary searches plus work proportional to its ~1 000 answers;
rows inserted later live in the tail of the same growable arrays and are
filtered by a mask (a few thousand at most).  With no DML applied the model
is exactly the sorted-key oracle the read-only workloads need, so one class
serves all five workloads.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from e21_common import DOMAIN_HIGH, Dataset

#: relative tolerance on ``sum(pay)`` — the engine sums in position order,
#: the oracle in key order, so the last digits may differ
SUM_REL_TOL = 1e-9

#: DML kinds and their shares of the DML operations
DML_MIX = (("i", 0.50), ("d", 0.25), ("u", 0.25))
DML_NAMES = {"i": "insert", "d": "delete", "u": "update"}

#: ("i", key, pay, new_rowid) | ("d", rowid) | ("u", rowid, key, new_rowid)
DmlOp = Tuple


class DmlPlanner:
    """Plans DML against a table of ``rows`` rows, ``dead`` of them deleted."""

    def __init__(self, rows: int, rng: np.random.Generator,
                 dead: Sequence[int] = ()) -> None:
        self.rows = rows
        self.inserts = 0
        self._dead = {int(rowid) for rowid in dead}
        self.rng = rng

    def _victim(self) -> int:
        while True:
            rowid = int(self.rng.integers(0, self.rows))
            if rowid not in self._dead:
                self._dead.add(rowid)
                return rowid

    def _key(self) -> int:
        return int(self.rng.integers(0, DOMAIN_HIGH))

    def op(self, kind: str) -> DmlOp:
        if kind == "d":
            return ("d", self._victim())
        if kind == "i":
            planned = ("i", self._key(), float(self.rng.uniform(0.0, 1000.0)), self.rows)
        else:
            # the victim is drawn among the rows that exist before the append
            planned = ("u", self._victim(), self._key(), self.rows)
        self.rows += 1
        self.inserts += 1
        return planned

    def next_op(self) -> DmlOp:
        """One DML op drawn from ``DML_MIX``."""
        draw = self.rng.random()
        for kind, share in DML_MIX:
            if draw < share:
                break
            draw -= share
        return self.op(kind)

    def burst(self, count: int) -> List[DmlOp]:
        return [self.next_op() for _ in range(count)]


class ShadowTable:
    """Visible state of table ``t`` under a sequence of DML operations."""

    def __init__(self, dataset: Dataset, spare_rows: int = 0) -> None:
        base = dataset.rows
        self._base = base
        self.rows = base
        capacity = base + spare_rows
        self.keys = np.empty(capacity, dtype=np.int64)
        self.pay = np.empty(capacity, dtype=np.float64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.keys[:base] = dataset.keys
        self.pay[:base] = dataset.pay
        self.alive[:base] = True
        self._order = np.argsort(dataset.keys, kind="stable")
        self._sorted_keys = dataset.keys[self._order]

    def fork(self) -> "ShadowTable":
        """An independent model of the same rows (shares the immutable sort)."""
        twin = object.__new__(ShadowTable)
        twin.__dict__.update(self.__dict__)
        twin.keys, twin.pay, twin.alive = (
            self.keys.copy(), self.pay.copy(), self.alive.copy()
        )
        return twin

    # -- DML ------------------------------------------------------------------

    def _grow(self) -> None:
        capacity = max(16, 2 * len(self.keys))
        for name in ("keys", "pay", "alive"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _append(self, rowid: int, key: int, pay: float) -> None:
        if rowid != self.rows:
            raise ValueError(f"planned rowid {rowid} applied to a table of {self.rows} rows")
        if rowid == len(self.keys):
            self._grow()
        self.keys[rowid] = key
        self.pay[rowid] = pay
        self.alive[rowid] = True
        self.rows += 1

    def apply(self, op: DmlOp) -> None:
        """Apply one planned op; an update moves the row to its new identifier."""
        kind = op[0]
        if kind == "i":
            self._append(op[3], op[1], op[2])
            return
        self.alive[op[1]] = False
        if kind == "u":
            self._append(op[3], op[2], float(self.pay[op[1]]))

    # -- answers --------------------------------------------------------------

    def visible_rowids(self) -> np.ndarray:
        return np.flatnonzero(self.alive[: self.rows])

    def answer(self, low: float, high: float) -> Tuple[int, float]:
        """``(row_count, sum(pay))`` of visible rows with ``low <= key < high``."""
        # keys are integers, so a real bound compares like its ceiling —
        # and an integer probe keeps searchsorted from promoting the array
        lo, hi = math.ceil(low), math.ceil(high)
        start, end = np.searchsorted(self._sorted_keys, [lo, hi], side="left")
        rowids = self._order[start:end]
        rowids = rowids[self.alive[rowids]]
        total = float(self.pay[rowids].sum())
        count = len(rowids)
        if self.rows > self._base:
            tail = slice(self._base, self.rows)
            tail_keys = self.keys[tail]
            mask = self.alive[tail] & (tail_keys >= lo) & (tail_keys < hi)
            count += int(mask.sum())
            total += float(self.pay[tail][mask].sum())
        return count, total

    def matches(self, low: float, high: float, row_count: int,
                pay_sum: Optional[float]) -> bool:
        """True when an engine answer agrees with the model."""
        count, total = self.answer(low, high)
        if row_count != count:
            return False
        if pay_sum is None:
            return True
        if count == 0:
            # the executor reports the sum of no rows as NaN
            return math.isnan(pay_sum)
        return math.isclose(pay_sum, total, rel_tol=SUM_REL_TOL, abs_tol=1e-9)
