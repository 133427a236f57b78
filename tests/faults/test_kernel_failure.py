"""A crack kernel that raises inside a query leaves nothing held or running.

A query cracks under its table's read gate and its access path's lock, and
on a ``parallel=True`` partitioned column partly on the column's thread pool.
When a kernel raises there — a batch's one-pass ``crack_many`` or a lone
range's ``crack_range``, on a whole column or inside a pooled partition —
the error reaches the caller only after every other sub-selection has
finished.  Afterwards no kernel is still running, the column's invariants
hold, the path lock and the gate are free, and the next query and a DML
operation proceed without waiting.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.cracking import cracked_column
from repro.engine.database import Database
from repro.engine.query import Query

ROWS = 4_000
DOMAIN = 10_000
RANGES = [(low, low + 700) for low in (300, 2_100, 4_800, 7_400)]


class KernelFailure(RuntimeError):
    """What the armed kernel raises."""


@pytest.fixture
def kernels(monkeypatch):
    """The cracked column's two crack kernels, counted while in flight.

    Once ``arm()`` is called the next kernel call raises before it touches
    anything, and until ``disarm()`` every other call first sleeps, so a
    pooled sibling is still cracking when the failure arrives."""
    lock = threading.Lock()
    state = {"in_flight": 0, "armed": False, "slow": False}

    def counted(name):
        kernel = getattr(cracked_column, name)

        def run(*args, **kwargs):
            with lock:
                state["in_flight"] += 1
                fail, state["armed"] = state["armed"], False
            try:
                if fail:
                    raise KernelFailure(name)
                if state["slow"]:
                    time.sleep(0.05)
                return kernel(*args, **kwargs)
            finally:
                with lock:
                    state["in_flight"] -= 1

        monkeypatch.setattr(cracked_column, name, run)

    counted("crack_range")
    counted("crack_many")
    state["arm"] = lambda: state.update(armed=True, slow=True)
    state["disarm"] = lambda: state.update(armed=False, slow=False)
    return state


def build(mode):
    rng = np.random.default_rng(37)
    database = Database("kernel-failure")
    database.create_table("t", {
        "key": rng.integers(0, DOMAIN, ROWS).astype(np.int64),
        "pay": rng.random(ROWS),
    })
    options = ({} if mode == "cracking"
               else {"partitions": 4, "parallel": True, "max_workers": 2})
    database.set_indexing("t", "key", mode, **options)
    return database


def run(session, entry, ranges):
    queries = [Query.range_query("t", "key", low, high) for low, high in ranges]
    if entry == "execute":
        return [session.execute(query) for query in queries]
    return session.execute_many(queries)


def expected(database, low, high):
    values = database.table("t")["key"].values
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


@pytest.mark.parametrize("entry", ["execute", "execute_many"])
@pytest.mark.parametrize("mode", ["cracking", "partitioned-cracking"])
def test_a_raising_kernel_leaves_nothing_held_or_running(
        kernels, pooled_fan_out, pool_submits, mode, entry):
    database = build(mode)
    path = database.access_path("t", "key")
    lock = database._path_locks.lock_for(("path", "t", "key"))
    gate = database._table_gates.gate("t")
    with database.session() as session:
        run(session, entry, RANGES[:2])  # materialised, some pieces
        kernels["arm"]()
        with pytest.raises(KernelFailure):
            run(session, entry, RANGES[2:])
        kernels["disarm"]()
        assert kernels["in_flight"] == 0
        if mode == "partitioned-cracking":
            assert pool_submits  # the failing call had pooled siblings
        path.check_invariants()
        assert not lock.locked()
        with gate._condition:
            assert gate._active_readers == 0 and not gate._writer_active
        for result, (low, high) in zip(run(session, entry, RANGES), RANGES):
            assert set(result.positions.tolist()) == expected(database, low, high)
        fenced = gate.fenced_writes
        session.insert_row("t", {"key": 5, "pay": 1.0})
        assert gate.fenced_writes == fenced  # the insert found the gate free
    database.close()
