"""The run set: every sorted run of a column in two flat arrays.

The first query of adaptive merging performs *run generation*: the column is
cut into equal-size chunks, each chunk is sorted (with its row identifiers),
and the chunks become the initial partitions of a partitioned B-tree.  Run
generation is a single sequential pass plus per-run sorts — far cheaper than
a full sort in a disk-based setting (one pass instead of log-many) and the
only moment adaptive merging touches rows the workload never asks for.

Run generation
--------------
Each run is one row of :func:`repro.columnstore.bulk.stable_sort_rows`.
Integer keys are sorted as packed words, ``(value - min) << pbits |
position`` with ``pbits`` the bit length of ``S - 1``, written into the
``rowids`` array and sorted there by numpy's default sort: the words are
distinct, so their order is the stable order of the keys, and a mask and a
shift take them apart into ``rowids`` and ``values``.  Floats, and integer
columns whose key span needs more than ``63 - pbits`` bits, fall back to
numpy's stable argsort.  The runs are the same either way; only the time
differs (about 4x on a 1 000-run column of int64 keys).

Layout
------
:class:`RunSet` keeps one ``values`` and one ``rowids`` array of the column's
length ``n``; run ``r`` is the slice ``[r·S, min((r+1)·S, n))`` (``S`` the run
size), stably sorted.  The arrays are written once, by run generation, and
never again.

Why the runs can stay immutable
-------------------------------
Adaptive merging and the hybrids extract each key range **at most once**:
the ranges they ask for are the *uncovered* gaps of an interval set, so a
gap never contains an already-extracted value.  On the original run slice
the two bisection positions of a gap therefore bracket exactly the entries
that are still live — the textbook step of cutting them out and rebuilding
the run would change nothing a later search can see.  What the cost model
is defined on is the number of entries each run still *holds* (a binary
search over a run of ``m`` live entries costs ``binary_search_count(m)``),
so that is all that is kept per run: one ``int64`` live count.  The price
is memory: an extracted entry keeps its 8 + itemsize bytes in the flat
arrays, which ``nbytes`` — the logical figure, live entries only — does not
show.

One kernel per gap
------------------
A gap is located by **one** bisection over ``2·runs`` lanes, one per (run,
bound) pair; an open bound takes no lanes.  The bounds are typed once by
:func:`~repro.columnstore.types.exact_bounds` and laid out as a vector of the
column's own dtype, so every comparison is exact at any key width.  All runs
but the last hold exactly ``S`` entries, so every lane takes the same
``bit_length(S)`` steps: the first, ``S - P + 1`` (``P`` the largest power of
two up to ``S``), leaves ``P`` candidate positions either way, and the powers
of two below ``P`` halve them; no probe leaves its run.  Only the last run may
be shorter, and its probes past its end are probes past the array's end,
which ``take(mode="clip")`` answers with its maximum: the run reads as padded
with copies of that entry, still sorted, and one ``np.minimum`` with the run
ends removes the padding.  A round is five array calls and no per-run
Python.  The qualifying entries are then gathered in run order by one index,
and the sum of the lower positions is the *global rank* of the gap's lower
bound: the number of values in the column below it, which is where the
sorted block belongs in a final partition laid out by rank.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.columnstore.bulk import binary_search_counts, stable_sort_rows
from repro.columnstore.column import Column
from repro.columnstore.types import Bound, exact_bounds
from repro.cost.counters import CostCounters


class RunSet:
    """All sorted runs of one column (see the module docstring).

    It is also the hybrids' *sorted* initial partition: ``extract_range``,
    ``len`` (live tuples) and ``nbytes`` are the initial-partition interface,
    and a set whose run size reaches the column length is one sorted
    partition.  Callers must never extract a key range that overlaps an
    earlier one.
    """

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        run_size: Optional[int] = None,
        counters: Optional[CostCounters] = None,
    ) -> None:
        """Cut ``column`` into sorted runs of ``run_size`` elements.

        The default run size is ``sqrt(n)`` (giving about ``sqrt(n)`` runs),
        which mirrors the memory-limited run generation of the original work
        and keeps both the number of runs and the per-run sort cost balanced.
        """
        base = column.values if isinstance(column, Column) else np.asarray(column)
        n = len(base)
        if run_size is None:
            run_size = max(1, int(np.sqrt(n)))
        if run_size < 1:
            raise ValueError("run_size must be >= 1")
        self.run_size = int(run_size)
        starts = np.arange(0, n, self.run_size, dtype=np.int64)
        # each run is a row of the kernel; its in-run positions become rowids
        self.values, self.rowids = stable_sort_rows(base, self.run_size, counters)
        full = n - n % self.run_size
        body = self.rowids[:full].reshape(-1, self.run_size)
        body += starts[: len(body), None]
        self.rowids[full:] += full
        # one lane per (run, bound): the lower bound's lanes, then the upper's,
        # whose first halves are the runs' own starts and ends
        runs = len(starts)
        self._lane_starts = np.tile(starts, 2)
        self._lane_ends = np.minimum(self._lane_starts + self.run_size, n)
        self.starts, self.ends = self._lane_starts[:runs], self._lane_ends[:runs]
        # the bisection's steps (see the module docstring); none when empty
        size = min(self.run_size, n)
        top = (1 << size.bit_length()) >> 1  # the largest power of two up to size
        self._steps = ((size - top + 1,) + tuple(top >> k for k in range(1, top.bit_length()))
                       if size else ())
        #: entries each run still holds
        self.live = self.ends - self.starts
        self._live_total = n
        if counters is not None:
            # the kernel charged the sorts, run by run; the pass is charged here
            counters.record_scan(n)
            counters.record_allocation(n * (base.itemsize + 8))
            counters.record_pieces(len(self.starts))

    def __len__(self) -> int:
        """Tuples not yet extracted."""
        return self._live_total

    @property
    def nbytes(self) -> int:
        """Bytes of the live entries (extracted ones are not counted)."""
        return self._live_total * (self.values.itemsize + 8)

    @property
    def run_count(self) -> int:
        """Number of runs that still hold an entry."""
        return int(np.count_nonzero(self.live))

    def _bisect(self, bounds: Tuple[Bound, ...]) -> np.ndarray:
        """Per run and per bound, the position of the run's first entry
        ``>= bound``: ``np.searchsorted(run, bound, side="left")`` for every
        lane at once, the lanes of each bound in run order."""
        values, runs = self.values, len(self.starts)
        lanes = len(bounds) * runs
        key = np.repeat(np.array(bounds, dtype=values.dtype), runs)
        found = self._lane_starts[:lanes].copy()
        scratch = np.empty_like(found)
        probe = np.empty(lanes, dtype=values.dtype)
        below = np.empty(lanes, dtype=bool)
        for step in self._steps:
            np.add(found, step - 1, out=scratch)  # the last entry a step skips
            values.take(scratch, out=probe, mode="clip")
            np.less(probe, key, out=below)
            np.multiply(below, step, out=scratch)
            found += scratch
        return np.minimum(found, self._lane_ends[:lanes], out=found)

    def extract_ranked(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Take out ``(values, rowids)`` with ``low <= value < high``,
        concatenated in run order, and return them with the global rank of
        ``low``: the number of values in the column below it (0 when open).

        The qualifying entries are located with binary searches (the runs
        are sorted) and charged as moved out of their runs, exactly like
        adaptive merging moves tuples out of initial partitions into the
        final one.
        """
        if counters is not None:
            # two binary searches in every run that still holds an entry
            counters.record_comparisons(2 * int(binary_search_counts(self.live).sum()))
            counters.record_random_access(2 * self.run_count)
        low, high = exact_bounds(self.values.dtype, low, high)
        found = self._bisect(tuple(bound for bound in (low, high) if bound is not None))
        runs = len(self.starts)
        begin = self.starts if low is None else found[:runs]
        rank = int((begin - self.starts).sum())
        end = self.ends if high is None else found[len(found) - runs:]
        counts = end - begin
        np.maximum(counts, 0, out=counts)
        total = int(counts.sum())
        if counters is not None:
            counters.record_scan(total)
            counters.record_move(total)
        self.live -= counts
        self._live_total -= total
        # slot i of the block reads run r's entry begin[r] + (i - block_start[r])
        shift = np.cumsum(counts)
        shift -= counts
        np.subtract(begin, shift, out=shift)
        index = np.repeat(shift, counts)
        index += np.arange(total)
        return self.values[index], self.rowids[index], rank

    def extract_range(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`extract_ranked` without the rank: the initial-partition
        interface of the hybrids."""
        return self.extract_ranked(low, high, counters)[:2]

    def check_invariants(self, base: np.ndarray) -> None:
        """Runs sorted, aligned with ``base`` and counted right (test helper)."""
        assert np.array_equal(base[self.rowids], self.values), "runs misaligned with base"
        owner = self.rowids // self.run_size
        assert np.array_equal(owner, np.arange(len(base)) // self.run_size), (
            "a row identifier left its run"
        )
        ordered = self.values[:-1] <= self.values[1:]
        ordered[self.ends[:-1] - 1] = True  # run boundaries
        assert bool(ordered.all()), "run lost its sortedness"
        assert bool(((0 <= self.live) & (self.live <= self.ends - self.starts)).all())
        assert int(self.live.sum()) == self._live_total
