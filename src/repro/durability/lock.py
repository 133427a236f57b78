"""One process owns a data directory: a lock file with a pid stamp.

Two processes appending to one journal would interleave its segments
undetectably, so a durable database takes ``data_dir/LOCK`` before it reads
or writes anything there: an exclusive ``flock`` on the file, and the
owner's pid written into it for the diagnostic a refused process reports.

The lock belongs to the process, not to one :class:`Database`: a second
``Database.open`` of the same directory in the same process is admitted
(the fault suite abandons a database mid-run and recovers it beside the
abandoned one, as a restarted process would).  The process keeps the
``flock`` while any holder is alive; the last one to close — or to be
collected — releases it.  A holder that died without closing (``kill -9``)
leaves its stamp behind but not its ``flock``, which the kernel drops with
the process: the next opener takes the lock over and rewrites the stamp.
The process's hold is found by the directory's device and inode, and it is
trusted only while its descriptor is still the file ``data_dir/LOCK``
names and this process took it: a directory made where an abandoned one
was removed, or a forked child, takes the lock afresh.

A collection can run a holder's release on any allocation, including one
made while this thread holds the registry's mutex; such a release is queued
and done by whichever thread holds the mutex as it leaves, so it never waits
for a mutex its own thread holds.

Where ``fcntl`` does not exist, nothing is locked.
"""

from __future__ import annotations

import os
import threading
import weakref
from pathlib import Path
from typing import Dict, List, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - not a POSIX host
    fcntl = None

LOCK_NAME = "LOCK"
#: characters of the pid stamp, padded with spaces (a pid has at most 7)
_STAMP_WIDTH = 20


class DataDirectoryLocked(RuntimeError):
    """Another process holds the data directory."""


class _Hold:
    """This process's ``flock``-ed descriptor of one LOCK file, and how
    many holders share it."""

    __slots__ = ("fd", "holders", "pid")

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.holders = 0
        self.pid = os.getpid()

    def covers(self, path: Path) -> bool:
        """Whether this hold is this process's, on the file ``path`` names
        now.  A registry entry outlives its directory while an abandoned
        holder lives, and a directory made later may reuse the inode it is
        keyed by; a forked child inherits the registry but not the lock."""
        if self.pid != os.getpid():
            return False
        try:
            named = os.stat(path)
        except FileNotFoundError:
            return False
        held = os.fstat(self.fd)
        return (held.st_dev, held.st_ino) == (named.st_dev, named.st_ino)


#: (device, inode) of a data directory -> this process's hold on it
_HELD: Dict[Tuple[int, int], _Hold] = {}
_HELD_MUTEX = threading.Lock()
#: released holders not yet dropped: a release queues here and drops only
#: when it takes the mutex without waiting (a collection may run it on a
#: thread that holds the mutex already)
_RELEASED: List[Tuple[Tuple[int, int], _Hold]] = []


def _release(key: Tuple[int, int], hold: _Hold) -> None:
    _RELEASED.append((key, hold))
    _drain()


def _drain(wait: bool = False) -> None:
    """Drop every queued release, unless another thread holds the mutex —
    it drains on its way out.  ``wait`` takes the mutex once even so: a
    drop another thread took over is done when that returns."""
    while (_RELEASED or wait) and _HELD_MUTEX.acquire(wait):
        wait = False
        try:
            while _RELEASED:
                key, hold = _RELEASED.pop()
                hold.holders -= 1
                if hold.holders:
                    continue
                if _HELD.get(key) is hold:
                    del _HELD[key]
                os.close(hold.fd)  # closing the descriptor drops the flock
        finally:
            _HELD_MUTEX.release()


class DirectoryLock:
    """This process's hold on ``data_dir`` (see the module docstring);
    :meth:`release` is idempotent, and collection releases too."""

    def __init__(self, data_dir: Path) -> None:
        """``data_dir`` must exist."""
        directory = os.stat(data_dir)
        key = (directory.st_dev, directory.st_ino)
        path = Path(data_dir) / LOCK_NAME
        if fcntl is None:
            self._release = lambda: None
            return
        try:
            with _HELD_MUTEX:
                hold = _HELD.get(key)
                if hold is None or not hold.covers(path):
                    # a stale entry stays with its own holders, which close it
                    hold = _HELD[key] = _Hold(_take(path))
                hold.holders += 1
        finally:
            _drain()  # what a collection released meanwhile
        self._release = weakref.finalize(self, _release, key, hold)

    def release(self) -> None:
        """Release this holder; the last one's ``flock`` is dropped when
        this returns."""
        self._release()
        _drain(wait=True)


def _take(path: Path) -> int:
    """An ``flock``-ed descriptor of ``path`` stamped with this pid, or raise
    naming the pid the file holds."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        owner = os.pread(fd, 64, 0).decode("ascii", "replace").strip() or "unknown"
        os.close(fd)
        raise DataDirectoryLocked(
            f"data directory {str(path.parent)!r} is in use by process {owner} "
            f"(it holds {path.name}); one process owns a data directory at a time"
        ) from None
    except BaseException:
        os.close(fd)
        raise
    # the previous owner's stamp (a process that died holding it) is
    # overwritten in place — every stamp has one width, so nothing is
    # truncated — and a reopen in the same process writes nothing: a
    # truncate or a write costs a filesystem round trip on every open
    stamp = f"{os.getpid():<{_STAMP_WIDTH}}\n".encode("ascii")
    if os.pread(fd, len(stamp), 0) != stamp:
        os.pwrite(fd, stamp, 0)
    return fd
