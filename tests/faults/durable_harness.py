"""Shared harness for the crash-fault-injection suites.

Builds identically seeded databases twice — once durable (journaling to a
data directory, optionally through a :class:`FaultInjector`) and once in
memory as the replay oracle — and runs a deterministic mixed query/DML
workload through the session front door.  After a simulated crash the
suites recover the directory and demand prefix consistency: the recovered
state must equal the oracle replay of exactly the operations the
surviving journal prefix covers, nothing more and nothing less.
"""

import numpy as np

from repro.durability.manager import DurabilityConfig, wal_directory
from repro.durability.wal import WriteAheadLog
from repro.engine.database import Database
from repro.engine.query import Query

SIZE = 300
DOMAIN = 5_000

#: the indexing modes the crash scenarios sweep (scan = no index, one
#: in-place cracker, one with a pending-update queue, one partitioned)
FAULT_MODES = [
    ("scan", {}),
    ("cracking", {}),
    ("updatable-cracking", {}),
    ("partitioned-cracking", {"partitions": 3}),
]


def build_durable(data_dir, mode, options, injector=None, sync="always",
                  **config):
    """An indexed, journaled database over deterministic initial data."""
    database = Database(
        f"faults-{mode}",
        data_dir=data_dir,
        durability=DurabilityConfig(sync=sync, **config),
        fault_injector=injector,
    )
    _populate(database, mode, options)
    return database


def build_memory(mode, options):
    """The in-memory twin used as the sequential replay oracle."""
    database = Database(f"faults-{mode}")
    _populate(database, mode, options)
    return database


def _populate(database, mode, options):
    rng = np.random.default_rng(4242)
    database.create_table(
        "facts",
        {
            "key": rng.integers(0, DOMAIN, size=SIZE).astype(np.int64),
            "aux": rng.integers(0, 500, size=SIZE).astype(np.int64),
            "payload": rng.uniform(0, 100, size=SIZE),
        },
    )
    if mode != "scan":
        database.set_indexing("facts", "key", mode, **options)


def run_workload(database, steps=80, seed=33):
    """A deterministic mixed stream: range queries, inserts, deletes,
    updates — raises whatever the injector raises mid-operation."""
    rng = np.random.default_rng(seed)
    live = list(range(SIZE))
    with database.session(name="faulty") as session:
        for _ in range(steps):
            roll = rng.random()
            low = int(rng.integers(0, DOMAIN - 800))
            if roll < 0.3:
                session.query("facts").where("key", low, low + 800).run()
            elif roll < 0.65 or not live:
                live.append(
                    session.insert_row(
                        "facts",
                        {"key": int(rng.integers(0, DOMAIN)),
                         "aux": 1, "payload": 0.5},
                    )
                )
            elif roll < 0.85:
                victim = live.pop(int(rng.integers(0, len(live))))
                session.delete_row("facts", victim)
            else:
                victim = live.pop(int(rng.integers(0, len(live))))
                live.append(
                    session.update_row(
                        "facts", victim,
                        {"key": int(rng.integers(0, DOMAIN))},
                    )
                )


def setup_wal_bytes(tmp_path, mode, options):
    """Journal bytes the schema setup alone writes (calibrates budgets)."""
    probe_dir = tmp_path / "probe"
    probe = build_durable(probe_dir, mode, options)
    probe.close()
    return sum(
        path.stat().st_size for path in wal_directory(probe_dir).glob("*.seg")
    )


def surviving_cut(data_dir):
    """Highest journal sequence that survived, or -1 (torn tail excluded)."""
    scan = WriteAheadLog.scan(wal_directory(data_dir))
    return scan.last_sequence if scan.last_sequence is not None else -1


def assert_same_logical_state(recovered, oracle, context):
    """Logical equality: columns, tombstones and query answers.

    Deliberately *not* cost counters: the crashed database cracked its
    index while answering the pre-crash queries, and recovery rebuilds
    the index fresh — physical state may differ, logical state may not.
    """
    assert (
        recovered.visible_row_count("facts")
        == oracle.visible_row_count("facts")
    ), context
    for name in ("key", "aux", "payload"):
        assert np.array_equal(
            recovered.table("facts")[name].values,
            oracle.table("facts")[name].values,
        ), f"{context}: column {name} diverged"
    assert np.array_equal(
        recovered.table("facts").tombstones, oracle.table("facts").tombstones
    ), context
    with recovered.session() as replayed, oracle.session() as expected:
        for low in (0, 1_200, 3_300):
            query = Query.range_query("facts", "key", low, low + 900)
            assert np.array_equal(
                np.sort(replayed.execute(query).positions),
                np.sort(expected.execute(query).positions),
            ), f"{context}: query [{low}, {low + 900}) diverged"
