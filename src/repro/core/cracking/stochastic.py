"""Stochastic cracking: robustness against adversarial query patterns.

Plain cracking only ever cracks at the query bounds.  Under adversarial (for
example, strictly sequential) workloads every query then re-partitions one
huge piece by shaving a sliver off its edge, so per-query cost stays close
to a scan for a very long time.  Stochastic cracking (Halim et al., PVLDB
2012 — discussed in the tutorial's optimisation/robustness section) injects
additional *random* cuts so large pieces keep shrinking regardless of where
the query bounds fall.

Two classic flavours are provided:

* **DDC (data-driven center)**: before cracking at a query bound, recursively
  crack oversized pieces at the median-ish value (approximated by the value
  at the middle position) until the piece containing the bound is small.
* **DDR (data-driven random)**: the same, but the auxiliary cut uses a value
  picked at a random position of the piece.

``MDD1R`` (the paper's recommended default) is approximated by performing a
single random cut per oversized piece per query, which preserves its key
property: per-query overhead stays bounded while large unindexed pieces
cannot survive long.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.columnstore.column import Column
from repro.core.cracking.cracked_column import CrackedColumn
from repro.cost.counters import CostCounters

#: how many alternate random positions a DDR/MDD1R cut may probe before
#: declaring a piece uncuttable (a drawn pivot equal to the piece minimum —
#: or an already existing boundary — does not prove the piece degenerate,
#: it may simply be an unlucky draw)
_AUX_PIVOT_ATTEMPTS = 8

#: a piece is "oversized" when it holds more than this fraction of the
#: column; oversized pieces touched by a query receive auxiliary cuts
_SIZE_THRESHOLD_FRACTION = 0.01


class StochasticCrackedColumn(CrackedColumn):
    """Cracked column with auxiliary random cuts on oversized pieces.

    Parameters
    ----------
    variant:
        ``"ddr"`` (random pivot, default), ``"ddc"`` (centre pivot) or
        ``"mdd1r"`` (one random cut per oversized piece per query).
    seed:
        Seed of the private random generator (for reproducible runs).
    """

    #: the random cuts come before each query's own cracks, so a batch is
    #: answered range by range (``search_many`` loops over :meth:`_select`)
    batchable = False

    def __init__(
        self,
        column: Union[Column, np.ndarray],
        variant: str = "ddr",
        seed: Optional[int] = 0,
        supports_updates: bool = False,
        name: str = "",
    ) -> None:
        variant = variant.lower()
        if variant not in ("ddr", "ddc", "mdd1r"):
            raise ValueError(f"unknown stochastic cracking variant {variant!r}")
        super().__init__(column, supports_updates=supports_updates, name=name)
        self.variant = variant
        self._rng = np.random.default_rng(seed)

    @property
    def structure_description(self) -> str:
        return f"stochastic cracking ({self.variant}): {self.piece_count} pieces"

    # -- auxiliary cuts ------------------------------------------------------------

    def _auxiliary_pivot(self, start: int, end: int) -> float:
        """Pick the auxiliary cut value for the piece [start, end): a key of
        the piece, as the column stores it (an unmaterialised column's one
        piece is its base, which its cracker column would copy)."""
        if self.variant == "ddc":
            position = (start + end) // 2
        else:  # ddr and mdd1r use a random position
            position = int(self._rng.integers(start, end))
        return (self.values if self.materialised else self._base)[position].item()

    def _shrink_piece_containing(
        self,
        bound: float,
        counters: Optional[CostCounters],
        recursive: bool,
    ) -> None:
        """Apply auxiliary cuts to the piece containing ``bound``."""
        threshold = max(2, int(len(self) * _SIZE_THRESHOLD_FRACTION))
        # the centre pivot of DDC is deterministic: retrying it would only
        # re-derive the same value, so a single attempt suffices there
        attempts = 1 if self.variant == "ddc" else _AUX_PIVOT_ATTEMPTS
        while True:
            piece = self.index.piece_for_value(bound)
            if piece.size <= threshold:
                return
            # A pivot at the piece minimum (or an existing boundary) cannot
            # cut the piece — but for the random variants one unlucky draw
            # does not prove the piece degenerate: probe a bounded number
            # of alternate positions before giving up on this piece.
            pivot = None
            piece_low = piece.low  # hoisted out of the probe loop
            for _ in range(attempts):
                candidate = self._auxiliary_pivot(piece.start, piece.end)
                if piece_low is not None and candidate <= piece_low:
                    continue
                if self.index.has_boundary(candidate):
                    continue
                pivot = candidate
                break
            if pivot is None:
                return
            # a cold column's first cut builds its cracker arrays
            self.crack_at(pivot, counters)
            if not recursive:
                return

    def _select(
        self,
        low: Optional[float],
        high: Optional[float],
        counters: Optional[CostCounters],
    ) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """Range selection with auxiliary stochastic cuts before the query cracks."""
        # a converged (fully sorted) column takes the pure binary-search
        # path in the parent class; auxiliary cuts could only mutate it
        if not self._converged:
            recursive = self.variant in ("ddr", "ddc")
            if low is not None:
                self._shrink_piece_containing(low, counters, recursive)
            if high is not None:
                self._shrink_piece_containing(high, counters, recursive)
        return super()._select(low, high, counters)
