"""Per-access-path concurrency control for the session's queries.

The tutorial's central premise is that adaptive indexes physically
reorganise *during reads*: a selection through cracking, adaptive merging, a
hybrid or an updatable column moves data and rewrites index bookkeeping as a
side effect of answering.  Two such selections over one access path must
therefore never run concurrently.  But the opposite is just as important:
an access path that does **not** reorganise on read — a plain scan, a full
offline index, a cracked column that has become fully sorted, an adaptive
merging index whose runs are drained, a converged hybrid — is a pure reader
and any number of concurrent queries may read it at once.

This module gives the session (:mod:`repro.engine.session`) that
distinction:

* :func:`reorganizes_on_read` asks the access path installed for one
  ``(table, column)`` whether a selection can still mutate it: the
  ``reorganizes_on_read`` capability flag every registered structure
  declares itself (:class:`~repro.core.access_path.SearchStrategy` gives
  it no default);
* :func:`classify_plan` turns a planned query into
  :class:`AccessPathClaim` records — one per access path the plan
  dispatches through, shared (read-only) or exclusive (mutating);
* :func:`schedule_batch` classifies every plan of a batch with one
  exclusivity cache;
* :class:`AccessPathLockManager` hands out one lock per access-path key;
  a batch (a lone query is a batch of one) enters
  :meth:`AccessPathLockManager.claimed`, which takes the lock of every
  path its plans select through, in sorted key order, asks
  :func:`reorganizes_on_read` under it and keeps only the mutating ones,
  so mutating selections serialize per path across concurrent queries
  and batches while shared claims hold no lock.

A batch is classified under the lock it takes, each path once, before any
query runs: a path that converges (for example, a cracked column that
becomes fully sorted) in the middle of a batch keeps its exclusive claim
until the batch ends, which is conservative but deterministic.

Scope of the protection: since the session front door
(:mod:`repro.engine.session`) every entry point — single-query
``execute``, batches and DML — runs under the same
two-level protocol.  Level one is a per-table :class:`TableGate` (a fair
readers-writer gate): queries hold it shared, DML (and the DDL that
changes a table's design or drops it) holds it exclusive, so
an insert or delete issued mid-batch is *fenced* behind the in-flight
cracks instead of racing the access-path rebuild.  Level two is the
per-access-path lock of :class:`AccessPathLockManager`, serializing
mutating selections per path.  Gates are always acquired before path
locks, gates in sorted table order, path locks in sorted key order — a
fixed two-level hierarchy, so the protocol is deadlock-free.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis_tools.guards import LOCK_RANK, guarded_by
from repro.analysis_tools.witness import Witness

#: access-path key: ("path", table, column)
PathKey = Tuple[str, str, str]


# -- runtime lock-order witness -------------------------------------------------
#
# The static analyzer (repro.analysis_tools.reprolint) checks the documented
# acquisition order lexically; the witness checks it *dynamically*, across
# call boundaries the analyzer cannot see.  Every instrumented acquisition
# pushes onto a thread-local held-lock stack and records the edge
# (top-of-stack -> new lock) into a global acquisition-order graph.  An edge
# that would close a cycle — or that acquires a table gate while a path lock
# is held (rank regression against the declared ``guards.LOCK_ORDER``) — is a
# potential deadlock and is reported with both stacks: the acquiring
# thread's, and the sample stack recorded when the conflicting edge was
# first observed.
#
# Off by default with zero overhead beyond one global read per acquisition;
# enabled by ``REPRO_LOCK_WITNESS=1`` or programmatically via
# :func:`enable_lock_witness`; a violation raises :class:`LockOrderViolation`
# (see :mod:`repro.analysis_tools.witness` for the shared scaffold).


class LockOrderViolation(RuntimeError):
    """A lock acquisition violated the declared order (possible deadlock)."""


@guarded_by(_edges="_lock")
class LockOrderWitness(Witness):
    """Thread-local held-lock stacks feeding a global acquisition graph.

    Nodes are lock names prefixed with their declared level
    (``gate:<table>``, ``path:<key>``); a directed
    edge ``a -> b`` means some thread acquired ``b`` while holding ``a``.
    The graph is append-only and shared by every thread; violating edges
    are reported (never added), so the published graph stays acyclic.
    """

    violation = LockOrderViolation

    def __init__(self) -> None:
        super().__init__()
        self._tls = threading.local()
        #: edge -> formatted stack of the thread that first recorded it
        self._edges: Dict[Tuple[str, str], str] = {}

    # -- per-thread state ------------------------------------------------------

    def held(self) -> List[str]:
        """This thread's held-lock stack (outermost first)."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- graph inspection ------------------------------------------------------

    def edges(self) -> List[Tuple[str, str]]:
        """Every acquisition-order edge observed so far (sorted)."""
        with self._lock:
            return sorted(self._edges)

    def is_acyclic(self) -> bool:
        """True when the observed acquisition graph has no cycle."""
        edges = self.edges()
        adjacent: Dict[str, List[str]] = {}
        for source, target in edges:
            adjacent.setdefault(source, []).append(target)
        done: Dict[str, bool] = {}  # False = on stack, True = finished

        def visit(node: str) -> bool:
            state = done.get(node)
            if state is False:
                return False
            if state is True:
                return True
            done[node] = False
            for successor in adjacent.get(node, ()):
                if not visit(successor):
                    return False
            done[node] = True
            return True

        return all(visit(node) for node in adjacent)

    # -- recording -------------------------------------------------------------

    def acquired(self, name: str) -> None:
        """Record that the current thread acquired ``name``."""
        stack = self.held()
        if stack:
            self._check_edge(stack[-1], name)
        stack.append(name)

    def released(self, name: str) -> None:
        """Record that the current thread released ``name``."""
        stack = self.held()
        # releases may be out of LIFO order: drop the innermost occurrence
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _rank(name: str) -> int:
        """The declared rank of a node's level prefix (unknown = a leaf)."""
        return LOCK_RANK.get(name.split(":", 1)[0], LOCK_RANK["stats"])

    def _find_path(self, source: str, target: str) -> Optional[List[str]]:
        """Nodes of a path ``source -> ... -> target``, or None (lock held)."""
        parents: Dict[str, str] = {source: source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for edge_source, edge_target in self._edges:
                if edge_source != node or edge_target in parents:
                    continue
                parents[edge_target] = node
                if edge_target == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return path[::-1]
                frontier.append(edge_target)
        return None

    def _check_edge(self, holding: str, acquiring: str) -> None:
        edge = (holding, acquiring)
        sample = "".join(traceback.format_stack(limit=16))
        with self._lock:
            if edge in self._edges:
                return
            problem = None
            conflict_stack = ""
            if holding == acquiring:
                problem = f"re-acquisition of non-reentrant lock {acquiring!r}"
            elif self._rank(acquiring) < self._rank(holding):
                problem = (
                    f"rank regression: acquired {acquiring!r} while holding "
                    f"{holding!r} (table gates must be taken before path locks)"
                )
            else:
                reverse = self._find_path(acquiring, holding)
                if reverse is not None:
                    problem = (
                        "cycle-forming edge: "
                        + " -> ".join(reverse + [acquiring])
                    )
                    first_hop = (reverse[0], reverse[1])
                    conflict_stack = self._edges.get(first_hop, "")
            if problem is None:
                self._edges[edge] = sample
                return
            message = (
                f"lock-order violation ({problem})\n"
                f"held by this thread: {self.held() + [acquiring]}\n"
                f"--- acquiring thread stack ---\n{sample}"
            )
            if conflict_stack:
                message += (
                    f"--- stack that first recorded the conflicting edge ---\n"
                    f"{conflict_stack}"
                )
        self._report(message)


_WITNESS: Optional[LockOrderWitness] = None


def lock_witness() -> Optional[LockOrderWitness]:
    """The active witness, or None when witnessing is disabled."""
    return _WITNESS


enable_lock_witness = LockOrderWitness.enable
disable_lock_witness = LockOrderWitness.disable
LockOrderWitness.enable_from_environment("REPRO_LOCK_WITNESS")


class _WitnessedLock:
    """Thin path-lock wrapper reporting acquisitions to the witness.

    ``threading.Lock`` cannot be subclassed, so :meth:`lock_for` hands out
    this wrapper (same underlying lock, so raw and witnessed handles
    interoperate) whenever a witness is active.
    """

    __slots__ = ("_lock", "_name")

    def __init__(self, lock: threading.Lock, name: str) -> None:
        self._lock = lock
        self._name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            witness = _WITNESS
            if witness is not None:
                try:
                    witness.acquired(self._name)
                except BaseException:
                    # never leave the lock held when the witness raises
                    self._lock.release()
                    raise
        return acquired

    def release(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.released(self._name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "_WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class AccessPathClaim:
    """One access path a planned query dispatches through.

    ``exclusive`` is True when a selection through the path can physically
    reorganise it (so queries claiming it must serialize, in submission
    order), False when the path is read-only under selection.
    """

    key: PathKey
    exclusive: bool


def reorganizes_on_read(database, table: str, column: str) -> bool:
    """True when a selection on ``table.column`` can mutate its access path.

    A column without an access path is scanned, which reads the base column
    only; every installed path answers through its own
    ``reorganizes_on_read`` capability flag (a built full index never, the
    tuners always, the adaptive structures until they converge).
    """
    path = database.access_path(table, column)
    return path is not None and path.reorganizes_on_read


def classify_plan(
    database,
    plan,
    exclusivity_cache: Optional[Dict[PathKey, bool]] = None,
) -> List[AccessPathClaim]:
    """Access-path claims of one planned query.

    Only the selection steps that dispatch through an access path generate
    claims; refinement, reconstruction and aggregation read base columns
    and tombstones only, which no DML changes while the batch holds its
    gates.
    """
    cache = exclusivity_cache if exclusivity_cache is not None else {}
    claims: Dict[PathKey, AccessPathClaim] = {}
    for step in plan.access_path_steps():
        key: PathKey = ("path", step.table, step.column)
        if step.operator == "scan_select":
            exclusive = False
        else:  # index_select
            if key not in cache:
                # classify under the path's execution lock: a batch
                # issued from another thread may be cracking this very
                # column, and a convergence check (which latches) must
                # never observe a mid-crack array
                with database._path_locks.lock_for(key):
                    cache[key] = reorganizes_on_read(
                        database, step.table, step.column
                    )
            exclusive = cache[key]
        existing = claims.get(key)
        if existing is None or (exclusive and not existing.exclusive):
            claims[key] = AccessPathClaim(key, exclusive)
    return list(claims.values())


def schedule_batch(database, plans: Sequence) -> List[List[AccessPathClaim]]:
    """The access-path claims of every plan of a batch, in order.

    Each path is classified once per batch (one exclusivity cache for all
    the plans), so every query of the batch sees the same answer for it.
    """
    cache: Dict[PathKey, bool] = {}
    return [classify_plan(database, plan, cache) for plan in plans]


class _Held:
    """What a gate or a path lock is entered through: ``with`` it, and the
    acquisitions :meth:`__enter__` makes hold until the block ends.  Each
    acquisition that succeeds pushes its release onto ``_held``; leaving
    pops and calls them, and an entry that raises part way leaves at
    once, so it never keeps what it took."""

    __slots__ = ("_held",)

    def __exit__(self, *exc) -> None:
        held = self._held
        while held:
            held.pop()()


class _HeldPathLocks(_Held):
    """The path locks of ``keys`` (sorted): :meth:`AccessPathLockManager.locked`
    keeps them all, :meth:`AccessPathLockManager.claimed` only those whose
    path reorganises on read (``database`` is then the one it asks)."""

    __slots__ = ("_lock_for", "_keys", "_database")

    def __init__(self, manager, keys: List[PathKey], database=None) -> None:
        self._held: List = []
        self._lock_for = manager.lock_for
        self._keys = keys
        self._database = database

    def __enter__(self) -> None:
        lock_for, database, held = self._lock_for, self._database, self._held
        try:
            for key in self._keys:
                lock = lock_for(key)
                lock.acquire()
                held.append(lock.release)
                if database is not None and not reorganizes_on_read(
                        database, key[1], key[2]):
                    held.pop()()
        except BaseException:
            self.__exit__()
            raise


@guarded_by(_locks="_registry_guard", _witnessed="_registry_guard")
class AccessPathLockManager:
    """One lock per access-path key, created on first use.

    A batch holds the locks of the paths it mutates at once, taken in
    sorted key order (through :meth:`claimed`, or :meth:`locked` given
    claims); the locks serialize mutating selections across concurrent
    queries and batches issued from different threads.  Keys are never
    removed: the registry stays small (one entry per (table, column) ever
    claimed) and a lock outliving a dropped table is harmless.
    """

    def __init__(self) -> None:
        self._locks: Dict[PathKey, threading.Lock] = {}
        self._witnessed: Dict[PathKey, "_WitnessedLock"] = {}
        self._registry_guard = threading.Lock()

    def lock_for(self, key: PathKey):
        """The lock guarding ``key`` (created on first request).

        With a lock witness active the lock comes wrapped in a (cached,
        so identity is stable) :class:`_WitnessedLock`; raw and witnessed
        handles share the underlying lock and interoperate freely.
        """
        witness_active = _WITNESS is not None
        lock = self._locks.get(key)  # a key, once in, stays (no guard to read)
        if lock is not None and not witness_active:
            return lock
        with self._registry_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            if not witness_active:
                return lock
            wrapped = self._witnessed.get(key)
            if wrapped is None:
                name = "path:" + ":".join(map(str, key[1:]))
                wrapped = self._witnessed[key] = _WitnessedLock(lock, name)
            return wrapped

    def locked(self, claims: Sequence[AccessPathClaim]) -> _HeldPathLocks:
        """Hold the locks of every exclusive claim (sorted, deadlock-free)."""
        return _HeldPathLocks(
            self, sorted({claim.key for claim in claims if claim.exclusive}))

    def claimed(self, database, plans: Sequence) -> _HeldPathLocks:
        """Hold the locks of the paths ``plans`` mutate: each path an
        ``index_select`` step dispatches through is locked in sorted key
        order and asked :func:`reorganizes_on_read` under its lock, which
        it keeps only when the answer is yes — so a batch takes each path
        lock once, and a read-only path is free again before any query
        runs.  (A ``scan_select`` reads the base column: no lock.)"""
        return _HeldPathLocks(self, sorted({
            ("path", step.table, step.column)
            for plan in plans for step in plan.access_path_steps()
            if step.operator == "index_select"
        }), database)


@guarded_by(
    _active_readers="_mutex",
    _writer_active="_mutex",
    _waiting_writers="_mutex",
    fenced_writes="_mutex",
)
class TableGate:
    """A fair readers-writer gate fencing DML against in-flight queries.

    Queries (single or whole batches) hold the gate *shared*:
    any number run at once, with the per-access-path locks arbitrating
    mutating selections among them.  DML holds the gate *exclusive*: an
    insert, delete or update waits until every in-flight query on the
    table drains, then appends rows / rebuilds access paths / mutates
    tombstones with nothing else running on the table.  This is the
    batch-aware DML queue of the session front door — DML issued
    mid-batch queues on the gate instead of racing the rebuild.

    The gate is writer-preferring: once a DML operation is waiting, newly
    arriving readers queue behind it, so a continuous query stream cannot
    starve updates (the workload shape adaptive indexing is built for —
    queries vastly outnumber updates — makes the symmetric starvation
    direction a non-issue).  Not reentrant: neither side may re-acquire.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        # a plain lock under the condition: entered directly, it is one C
        # call each way (the condition's own ``with`` is a Python frame)
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._active_readers = 0
        self._writer_active = False
        self._waiting_writers = 0
        #: witness node name (the registry passes the table name)
        self._witness_name = f"gate:{name}" if name else f"gate:@{id(self):x}"
        #: times a DML operation had to wait for in-flight queries (or
        #: another DML op) to drain — the observable "fence" count
        self.fenced_writes = 0

    def acquire_read(self) -> None:
        with self._mutex:
            while self._writer_active or self._waiting_writers:
                self._condition.wait()
            self._active_readers += 1
        witness = _WITNESS
        if witness is not None:
            try:
                witness.acquired(self._witness_name)
            except BaseException:
                # never leave the gate held when the witness raises; the
                # failed acquisition was not pushed, so the nested
                # witness.released call is a harmless no-op
                self.release_read()
                raise

    def release_read(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.released(self._witness_name)
        with self._mutex:
            self._active_readers -= 1
            # only a writer can be waiting for the last reader to leave (a
            # reader waits for writers only)
            if self._active_readers == 0 and self._waiting_writers:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._mutex:
            if self._writer_active or self._active_readers:
                self.fenced_writes += 1
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    self._condition.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True
        witness = _WITNESS
        if witness is not None:
            try:
                witness.acquired(self._witness_name)
            except BaseException:
                self.release_write()
                raise

    def release_write(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.released(self._witness_name)
        with self._mutex:
            self._writer_active = False
            self._condition.notify_all()

    def read(self) -> "_HeldGates":
        """Hold the gate shared (query side)."""
        return _HeldGates((self,), exclusive=False)


@guarded_by(_gates="_registry_guard")
class TableGateRegistry:
    """One :class:`TableGate` per table name, created on first use.

    Like the path-lock registry, entries are never removed: a gate
    outliving a dropped table is harmless and the registry stays small.
    Multi-table acquisition (a cross-table batch) must enter gates in
    sorted table order; DML only ever holds one gate.
    """

    def __init__(self) -> None:
        self._gates: Dict[str, TableGate] = {}
        self._registry_guard = threading.Lock()

    def gate(self, table: str) -> TableGate:
        gate = self._gates.get(table)  # a gate, once in, stays (no guard to read)
        if gate is not None:
            return gate
        with self._registry_guard:
            gate = self._gates.get(table)
            if gate is None:
                gate = self._gates[table] = TableGate(name=table)
            return gate

    def read(self, tables: Sequence[str]) -> "_HeldGates":
        """Hold the gates of ``tables`` shared (sorted, deadlock-free)."""
        return _HeldGates(list(map(self.gate, sorted(set(tables)))), exclusive=False)

    def write(self, table: str) -> "_HeldGates":
        """Hold one table's gate exclusive (the DML side)."""
        return _HeldGates((self.gate(table),), exclusive=True)

    def write_all(self, tables: Sequence[str]) -> "_HeldGates":
        """Hold every listed gate exclusive (sorted, deadlock-free).

        The snapshot writer uses this to quiesce the whole store: with
        all gates held exclusive there is no query or DML in flight, so
        the captured column arrays, tombstones and high-water sequence
        are one consistent cut of the database.
        """
        return _HeldGates([self.gate(name) for name in sorted(set(tables))],
                          exclusive=True)


class _HeldGates(_Held):
    """Table gates held shared or exclusive, entered in the given (sorted)
    order."""

    __slots__ = ("_gates", "_exclusive")

    def __init__(self, gates: Sequence[TableGate], exclusive: bool) -> None:
        self._held: List = []
        self._gates = gates
        self._exclusive = exclusive

    def __enter__(self) -> None:
        held = self._held
        try:
            for gate in self._gates:
                if self._exclusive:
                    gate.acquire_write()
                    held.append(gate.release_write)
                else:
                    gate.acquire_read()
                    held.append(gate.release_read)
        except BaseException:
            self.__exit__()
            raise
