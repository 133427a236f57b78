"""Property suite: crash recovery is prefix-consistent, bit for bit.

Randomized extension of ``tests/faults``: random mixed workloads run
against a journaled database, a byte-budget fault injector kills the
"process" at a random offset, and recovery must rebuild exactly the state
the surviving journal prefix describes.  The oracle is the same
journal-replay machinery the session property suite uses
(``replay_journal`` demands every replayed query is bit-identical and
every DML lands on its recorded rowid), so a recovery bug and a
linearization bug are caught by the same net.  Swept across the
sequential and thread-pool partitioned executions, and —
without any crash — across snapshot churn with a clean close.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

_TESTS = Path(__file__).resolve().parents[1]
for _directory in (_TESTS / "faults",):
    if str(_directory) not in sys.path:
        sys.path.insert(0, str(_directory))

from durable_harness import (  # noqa: E402
    assert_same_logical_state,
    build_durable,
    build_memory,
    setup_wal_bytes,
    surviving_cut,
)
from test_property_sessions import replay_journal  # noqa: E402

from repro.durability.faults import FaultInjector, KilledByFault  # noqa: E402
from repro.engine.database import Database  # noqa: E402

DOMAIN = 5_000

EXECUTOR_CASES = [
    pytest.param("cracking", {}, id="seq"),
    pytest.param(
        "partitioned-cracking",
        {"partitions": 3, "parallel": True},
        id="thread",
    ),
]


def random_workload(database, rng, steps, snapshot_every=None):
    """Unscripted mixed stream (the property twin of the harness's
    deterministic one); with ``snapshot_every`` = n the caller takes a
    snapshot after every n-th DML."""
    live = list(range(300))
    dml = 0
    with database.session(name="chaos") as session:
        for _ in range(steps):
            roll = rng.random()
            low = int(rng.integers(0, DOMAIN - 900))
            if roll < 0.35:
                session.query("facts").where("key", low, low + 900).run()
                continue
            if roll < 0.7 or not live:
                live.append(
                    session.insert_row(
                        "facts",
                        {"key": int(rng.integers(0, DOMAIN)),
                         "aux": 2, "payload": 1.25},
                    )
                )
            elif roll < 0.85:
                session.delete_row(
                    "facts", live.pop(int(rng.integers(0, len(live))))
                )
            else:
                victim = live.pop(int(rng.integers(0, len(live))))
                live.append(
                    session.update_row(
                        "facts", victim,
                        {"key": int(rng.integers(0, DOMAIN))},
                    )
                )
            dml += 1
            if snapshot_every is not None and dml % snapshot_every == 0:
                database.snapshot()


@pytest.mark.parametrize("mode,options", EXECUTOR_CASES)
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_random_crash_recovers_prefix_consistent(tmp_path, mode, options,
                                                 seed):
    rng = np.random.default_rng(seed)
    budget = setup_wal_bytes(tmp_path, mode, options) + int(
        rng.integers(80, 3_000)
    )
    injector = FaultInjector(fail_after_bytes=budget)
    data_dir = tmp_path / "crash"
    database = build_durable(data_dir, mode, options, injector=injector)
    database.record_journal = True
    with pytest.raises(KilledByFault):
        random_workload(database, rng, steps=150)
    assert injector.killed

    recovered = Database.open(data_dir)
    cut = surviving_cut(data_dir)
    context = f"mode={mode} seed={seed} cut={cut}"
    oracle = build_memory(mode, options)
    prefix = [
        record for record in database.operation_journal()
        if record.sequence <= cut
    ]
    replay_journal(prefix, oracle, context)
    assert_same_logical_state(recovered, oracle, context)

    # sync="always": at most the single torn in-flight DML may be lost
    committed = [
        record.sequence for record in database.operation_journal()
        if record.kind != "query"
    ]
    lost = [sequence for sequence in committed if sequence > cut]
    assert len(lost) <= 1, f"{context}: lost committed operations {lost}"
    recovered.close()


#: (seed, n): the churn test snapshots after every n-th DML; n = 13 keeps
#: the bare seed as its id
CHURN_CASES = [
    pytest.param(seed, every, id=f"{seed}" if every == 13 else f"{seed}-every{every}")
    for seed in (404, 505)
    for every in (1, 13, 50)
]


@pytest.mark.parametrize("mode,options", EXECUTOR_CASES)
@pytest.mark.parametrize("seed,every", CHURN_CASES)
def test_snapshot_churn_then_clean_close_recovers_identically(
    tmp_path, mode, options, seed, every
):
    """No crash: snapshots the caller takes between DML must never change
    what a later recovery sees, and the full history must replay
    bit-identically on the in-memory oracle."""
    rng = np.random.default_rng(seed)
    data_dir = tmp_path / "churn"
    database = build_durable(data_dir, mode, options, sync="batch")
    database.record_journal = True
    random_workload(database, rng, steps=120, snapshot_every=every)
    snapshots = database.durability.stats()["snapshots_written"]
    assert snapshots >= 1, "workload too small to reach a snapshot"
    # the bounding satellite: each snapshot trims the in-memory journal
    # through its high-water mark, so only the un-snapshotted suffix stays
    assert len(database.operation_journal()) < 120
    database.close()

    recovered = Database.open(data_dir)
    context = f"mode={mode} seed={seed} every={every} snapshots={snapshots}"
    assert recovered.recovery_report.snapshot_path is not None
    # only the post-snapshot tail replays from the journal on disk
    assert (
        recovered.recovery_report.replayed_total
        <= recovered.recovery_report.wal_records
    )
    assert_same_logical_state(recovered, database, context)
    recovered.close()
