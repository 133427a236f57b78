"""CRC-32 of large buffers on two threads.

``zlib.crc32`` releases the interpreter lock while it runs, and so does
``os.preadv``, so a buffer can be read and checksummed by two threads at
once.  The buffer is cut into pieces of :data:`PIECE_BYTES` (the first one
shorter): the calling thread works through them from the front and one
helper thread from the back until they meet, near the middle when both
get a processor and wherever the slower one stopped when not, so a
stalled thread holds up at most its one piece.  :func:`crc32_combine`
joins the pieces' crcs into the crc of the whole, exactly
``zlib.crc32``'s, so no file format changes.  Below
:data:`SPLIT_MIN_BYTES` the caller does everything: a thread start costs
more than it would save.

The durability layer checksums through here wherever a buffer can be a
whole table: a snapshot's column sections (write and load) and a journal
frame's payload (a ``create_table`` record carries the table).
"""

from __future__ import annotations

import functools
import threading
import zlib
from collections import deque
from typing import Callable, List, Sequence, Tuple, TypeVar

__all__ = [
    "PIECE_BYTES", "SPLIT_MIN_BYTES", "crc32", "crc32_combine", "crc32_of_pieces",
    "pieces", "run_pieces",
]

#: a byte range this long or longer is worked on by two threads
SPLIT_MIN_BYTES = 4 << 20
#: the unit the two threads take in turn
PIECE_BYTES = 1 << 20

_POLY = 0xEDB88320  # CRC-32, bit-reflected as zlib computes it

Result = TypeVar("Result")


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo the CRC-32 polynomial (reflected; ``a`` non-zero)."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


def _powers() -> Tuple[int, ...]:
    """``x ** (2 ** k)`` modulo the polynomial, for k = 0 .. 31."""
    powers = [1 << 30]
    for _ in range(31):
        powers.append(_multmodp(powers[-1], powers[-1]))
    return tuple(powers)


_X2N = _powers()


@functools.lru_cache(maxsize=8)
def _shift(nbytes: int) -> int:
    """``x ** (8 * nbytes)`` modulo the polynomial (zlib's ``x2nmodp``)."""
    power = 1 << 31  # x ** 0
    k = 3  # 8 * nbytes bits: start at x ** (2 ** 3)
    while nbytes:
        if nbytes & 1:
            power = _multmodp(_X2N[k & 31], power)
        nbytes >>= 1
        k += 1
    return power


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = zlib.crc32(a)``,
    ``crc2 = zlib.crc32(b)`` and ``len2 = len(b)`` (zlib's
    ``crc32_combine``: ``crc1`` times ``x ** (8 * len2)``, plus ``crc2``)."""
    return _multmodp(_shift(len2), crc1) ^ crc2


def pieces(start: int, end: int) -> List[Tuple[int, int]]:
    """``[start, end)`` as ``(low, high)`` pieces: a first one of 1 to
    :data:`PIECE_BYTES` bytes, then whole ones (none for an empty range),
    so every piece after the first is combined at the same length."""
    if start >= end:
        return []
    first = (end - start) % PIECE_BYTES or PIECE_BYTES
    cuts = [start, *range(start + first, end + 1, PIECE_BYTES)]
    return list(zip(cuts, cuts[1:]))


def crc32_of_pieces(crcs: Sequence[int]) -> int:
    """The crc of consecutive :func:`pieces` from each piece's own crc."""
    crc = 0
    for index, piece_crc in enumerate(crcs):
        crc = crc32_combine(crc, piece_crc, PIECE_BYTES) if index else piece_crc
    return crc


def _on_two_threads(own: Callable[[], None], helpers: Callable[[], None]) -> None:
    """Run ``own`` on the caller while one helper thread runs ``helpers``.
    The helper is joined before this returns or raises; an exception it
    raised is raised here."""
    failure: list = []

    def helper() -> None:
        try:
            helpers()
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)

    thread = threading.Thread(target=helper, name="repro-crc32-pieces")
    thread.start()
    try:
        own()
    finally:
        thread.join()
    if failure:
        raise failure[0]


def run_pieces(
    run: Callable[[int], Result], count: int, nbytes: int
) -> List[Result]:
    """``[run(i) for i in range(count)]`` over ``count`` pieces holding
    ``nbytes`` bytes in all.  From :data:`SPLIT_MIN_BYTES` on, the caller
    takes pieces from the front and one helper thread from the back until
    none is left (``deque.popleft``/``pop`` hand each index out once)."""
    results: list = [None] * count
    queue = deque(range(count))

    def drain(take: Callable[[], int]) -> None:
        while True:
            try:
                index = take()
            except IndexError:
                return
            results[index] = run(index)

    if nbytes < SPLIT_MIN_BYTES:
        drain(queue.popleft)
    else:
        _on_two_threads(lambda: drain(queue.popleft), lambda: drain(queue.pop))
    return results


def crc32(data) -> int:
    """``zlib.crc32(data)`` of a C-contiguous buffer, on two threads from
    :data:`SPLIT_MIN_BYTES` on."""
    view = memoryview(data).cast("B")
    if view.nbytes < SPLIT_MIN_BYTES:
        return zlib.crc32(view)
    parts = pieces(0, view.nbytes)
    return crc32_of_pieces(run_pieces(
        lambda index: zlib.crc32(view[slice(*parts[index])]), len(parts), view.nbytes
    ))
