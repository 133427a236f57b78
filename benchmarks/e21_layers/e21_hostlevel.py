"""How fast the host is right now: a fixed probe, timed all through the run.

The sandboxes this benchmark runs on are a few cores of a shared host whose
speed moves by 20-50 % for seconds to minutes at a time, in interpreter-bound
and in memory-bound code separately (see README, "Steadiness").  A plain
wall-clock median then measures the neighbours: ten runs of the same code
spread by 10-30 %, whichever estimator is used and however long a run is.

So the runner times a fixed piece of work — :class:`HostProbe`, which touches
nothing of the program under test — every few milliseconds between the
client's calls, and divides each timing by the *level* of the probes around
it: how much longer than ``REFERENCE`` they took.  What comes out is the
latency the same call would have had on a host on which the probe takes
``REFERENCE``: still seconds, and a regression in the program moves it one
to one, but a slow spell of the host no longer does.  The raw timings are
reported beside the adjusted ones.

The probe has four parts, because the program's work has these four
characters and the host's speed moves differently for each: a tight
interpreter loop, interpreter work that allocates and calls, small numpy
calls at random places of a large array, and one streaming pass over 4 MB (twice the cache a core has to itself).
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: seconds each part takes at the reference speed (the recording host at its
#: usual level, probes run between client calls); a level of 1.0 is that speed
REFERENCE: Tuple[float, ...] = (0.000137, 0.000210, 0.000123, 0.000570)
#: a probe older than this is not trusted for the next timing
STALE_AFTER = 0.008

_ROWS = 512 * 1024
_LOOKUP_SETS = 64
_LOOKUPS = 24


class _Record:
    __slots__ = ("first", "second")

    def __init__(self, first: int, second: Tuple[int, int]) -> None:
        self.first = first
        self.second = second


class HostProbe:
    """The fixed work, and the level of the host each time it was run."""

    def __init__(self) -> None:
        # its own fixed generator: the same work in every run of every seed
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.integers(0, 10 * _ROWS, size=_ROWS))
        self._payload = rng.uniform(0.0, 1.0, size=_ROWS)
        self._keys = rng.integers(0, 10 * _ROWS, size=(_LOOKUP_SETS, _LOOKUPS))
        self._turn = 0
        self.runs = 0
        self.seconds = 0.0
        #: level of the latest probe, and when it ended
        self.level = 1.0
        self._fresh_until = 0.0

    # -- the four parts ---------------------------------------------------------

    @staticmethod
    def _loop() -> int:
        total = 0
        for i in range(5_000):
            total += i
        return total

    @staticmethod
    def _objects() -> int:
        table = {}
        total = 0
        for i in range(600):
            record = _Record(i, (i, i + 1))
            table[i & 127] = record
            total += record.first + len(record.second) + table[i & 31 if i > 31 else 0].first
        return total

    def _lookups(self) -> float:
        keys = self._keys[self._turn % _LOOKUP_SETS]
        self._turn += 1
        total = 0.0
        for j in range(0, _LOOKUPS, 2):
            low, high = np.searchsorted(self._sorted, [keys[j], keys[j] + 10_000])
            total += self._payload[low:high].sum()
        return total + self._payload[np.searchsorted(self._sorted, keys)].sum()

    def _stream(self) -> bool:
        values = self._sorted
        return bool(np.all(values[:-1] <= values[1:]))

    # -- probing ---------------------------------------------------------------------

    def parts(self) -> List[float]:
        """Seconds each of the four parts took, just now."""
        clock = time.perf_counter
        marks = [clock()]
        for part in (self._loop, self._objects, self._lookups, self._stream):
            part()
            marks.append(clock())
        self.runs += 1
        self.seconds += marks[-1] - marks[0]
        self._fresh_until = marks[-1] + STALE_AFTER
        return [after - before for before, after in zip(marks, marks[1:])]

    def probe(self) -> float:
        """Run the probe; the host's level is the mean of its parts' levels."""
        parts = self.parts()
        self.level = sum(p / r for p, r in zip(parts, REFERENCE)) / len(parts)
        return self.level

    def current(self) -> float:
        """The level for a call about to start: the latest probe's, or a new
        probe's when the latest is stale."""
        if time.perf_counter() >= self._fresh_until:
            self.probe()
        return self.level
