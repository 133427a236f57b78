"""Crash-fault injection for the durability layer.

The WAL and snapshot writers route every file open through an injectable
:class:`FaultInjector`, so tests can simulate a crash at an arbitrary byte
offset (a torn write: the prefix reaches the disk, the rest never does)
or at a named kill point (e.g. the instant before a snapshot's atomic
rename).  A simulated crash raises :class:`KilledByFault`; from then on
the injector drops *every* further write silently — the process is
"dead", nothing after the crash point may reach the disk — so the files
left behind are exactly what a real crash would leave.

The directory fsync that makes a create, rename or unlink durable
(:func:`fsync_directory`) lives here too: the WAL and the snapshot writer
share this one copy.

Corruption (bit rot, a misdirected write) is injected separately with
:meth:`FaultInjector.corrupt_file` / post-hoc file edits in the tests:
unlike a torn tail it must make recovery fail *loudly*.
"""

from __future__ import annotations

import os
import threading
from typing import Optional


class KilledByFault(RuntimeError):
    """The simulated crash: raised at the injected fault point."""


class FaultInjector:
    """Controls where the simulated crash happens.

    ``fail_after_bytes=n`` kills the process-under-test after ``n`` more
    bytes have been written through injected files: the write that crosses
    the threshold persists only its first bytes up to it (a torn write).
    ``kill_at="name"`` kills at the named kill point instead
    (:meth:`kill_point` calls are placed at the durability layer's
    crash-interesting instants, e.g. ``"snapshot.before_rename"``).
    """

    def __init__(
        self,
        fail_after_bytes: Optional[int] = None,
        kill_at: Optional[str] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._remaining = fail_after_bytes
        self._kill_at = kill_at
        self.killed = False
        self.kill_points_seen = []

    # -- crash machinery ---------------------------------------------------

    def _kill(self) -> None:
        self.killed = True
        raise KilledByFault("fault injector killed the process under test")

    def kill_point(self, name: str) -> None:
        """Crash here when this named point is armed (no-op otherwise)."""
        with self._lock:
            self.kill_points_seen.append(name)
            if self.killed or self._kill_at == name:
                self._kill()

    def consume(self, data: bytes) -> bytes:
        """Account ``data`` against the byte budget; returns the surviving
        prefix and crashes when the budget is exhausted."""
        with self._lock:
            if self.killed:
                self._kill()
            if self._remaining is None:
                return data
            if self._remaining >= len(data):
                self._remaining -= len(data)
                return data
            survivor = data[: self._remaining]
            self._remaining = 0
            self.killed = True
            if survivor:
                return survivor  # caller writes the torn prefix, then dies
            raise KilledByFault("fault injector killed the process under test")

    def check_alive(self) -> None:
        with self._lock:
            if self.killed:
                self._kill()

    # -- file plumbing -----------------------------------------------------

    def open(self, path, mode: str) -> "FaultyFile":
        """Open ``path`` wrapped so writes flow through this injector."""
        self.check_alive()
        return FaultyFile(open(path, mode, buffering=0), self)

    @staticmethod
    def corrupt_file(path, offset: int, flip: int = 0xFF) -> None:
        """XOR one byte of ``path`` at ``offset`` (simulated bit rot)."""
        with open(path, "r+b") as handle:
            handle.seek(offset)
            original = handle.read(1)
            if not original:
                raise ValueError(f"offset {offset} beyond end of {path}")
            handle.seek(offset)
            handle.write(bytes([original[0] ^ flip]))


class FaultyFile:
    """An unbuffered binary file whose writes can be torn or dropped.

    A write that crosses the injector's byte budget persists its surviving
    prefix (the bytes "already handed to the disk") and then raises
    :class:`KilledByFault`; once the injector is dead every further write,
    flush and fsync is dropped before touching the file.
    """

    def __init__(self, handle, injector: FaultInjector) -> None:
        self._handle = handle
        self._injector = injector

    def write(self, data: bytes) -> int:
        try:
            survivor = self._injector.consume(bytes(data))
        except KilledByFault:
            raise
        self._handle.write(survivor)
        if len(survivor) < len(data):
            self._handle.flush()
            raise KilledByFault(
                "fault injector tore the write after "
                f"{len(survivor)} of {len(data)} bytes"
            )
        return len(data)

    def flush(self) -> None:
        self._injector.check_alive()
        self._handle.flush()

    def fileno(self) -> int:
        return self._handle.fileno()

    def fsync(self) -> None:
        self._injector.check_alive()
        os.fsync(self._handle.fileno())

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        # closing is always allowed: a dead process's descriptors close too
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class _DirectFile:
    """The no-injector fast path: a plain unbuffered file plus fsync."""

    __slots__ = ("_handle",)

    def __init__(self, handle) -> None:
        self._handle = handle

    def write(self, data: bytes) -> int:
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        return self._handle.fileno()

    def fsync(self) -> None:
        os.fsync(self._handle.fileno())

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __enter__(self) -> "_DirectFile":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def open_durable(path, mode: str, injector: Optional[FaultInjector]):
    """Open a durability-layer file, routed through ``injector`` if armed."""
    if injector is not None:
        return injector.open(path, mode)
    return _DirectFile(open(path, mode, buffering=0))


def fsync_directory(directory) -> None:
    """Make a directory entry change (create/rename/unlink) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def kill_point(injector: Optional[FaultInjector], name: str) -> None:
    """Fire a named kill point when an injector is armed (no-op otherwise)."""
    if injector is not None:
        injector.kill_point(name)
