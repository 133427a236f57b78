"""Deterministic logical cost counters.

The adaptive-indexing literature reports results as response times on a
specific machine.  A Python reproduction cannot match those absolute numbers,
but the *shape* of every curve (first-query overhead, convergence, crossover
points) is determined by how much data each algorithm touches.  The counters
in this module capture exactly that: every operator and every index strategy
increments the counters of the :class:`CostCounters` instance it was given.

Counters are plain integers; a bundle supports subtraction (for deltas) and
in-place addition, and compares equal field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class CostCounters:
    """Mutable bundle of logical work counters.

    Attributes
    ----------
    tuples_scanned:
        Number of tuples read sequentially (scans, filters, merges reading
        their input).
    tuples_moved:
        Number of tuples physically relocated (cracking swaps, partitioning,
        merge output, sort movements).
    comparisons:
        Number of value comparisons performed by index navigation, binary
        search and sorting.  Vectorised filters count one comparison per
        element examined.
    random_accesses:
        Number of non-sequential accesses (index probes, piece lookups,
        scattered fetches during tuple reconstruction).
    bytes_allocated:
        Bytes of auxiliary memory allocated (cracker columns, runs, maps).
    pieces_created:
        Number of index pieces/partitions created (cracker pieces, runs,
        merged ranges); a structural counter used by convergence analyses.
    """

    tuples_scanned: int = 0
    tuples_moved: int = 0
    comparisons: int = 0
    random_accesses: int = 0
    bytes_allocated: int = 0
    pieces_created: int = 0

    # -- recording helpers -------------------------------------------------

    def record_scan(self, count: int) -> None:
        """Record ``count`` tuples read sequentially."""
        self.tuples_scanned += int(count)

    def record_move(self, count: int) -> None:
        """Record ``count`` tuples physically relocated."""
        self.tuples_moved += int(count)

    def record_comparisons(self, count: int) -> None:
        """Record ``count`` value comparisons."""
        self.comparisons += int(count)

    def record_random_access(self, count: int = 1) -> None:
        """Record ``count`` non-sequential accesses."""
        self.random_accesses += int(count)

    def record_allocation(self, nbytes: int) -> None:
        """Record ``nbytes`` bytes of auxiliary memory allocated."""
        self.bytes_allocated += int(nbytes)

    def record_pieces(self, count: int = 1) -> None:
        """Record creation of ``count`` new index pieces."""
        self.pieces_created += int(count)

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other: "CostCounters") -> "CostCounters":
        if not isinstance(other, CostCounters):
            return NotImplemented
        return CostCounters(
            **{name: getattr(self, name) - getattr(other, name) for name in _FIELDS}
        )

    def __iadd__(self, other: "CostCounters") -> "CostCounters":
        if not isinstance(other, CostCounters):
            return NotImplemented
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


_FIELDS = tuple(f.name for f in fields(CostCounters))
