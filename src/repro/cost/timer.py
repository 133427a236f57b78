"""Wall-clock timing utilities."""

from __future__ import annotations

import time


class Timer:
    """Context manager and accumulator for wall-clock timings.

    >>> timer = Timer()
    >>> with timer:
    ...     sum(range(1000))
    499500
    >>> timer.elapsed > 0
    True

    The same timer can be re-entered; :attr:`total` accumulates across
    entries while :attr:`elapsed` reports the most recent interval.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.total = 0.0
        self.entries = 0
        self._start = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        end = time.perf_counter()
        self.elapsed = end - self._start
        self.total += self.elapsed
        self.entries += 1
        self._start = None
