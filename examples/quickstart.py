"""Quickstart: the session front door over an adaptively indexed table.

Creates a table of 500k random rows, puts its key column under the classic
database-cracking strategy, and runs a stream of range queries through a
:class:`Session` — the one lock-aware API for queries, batches and DML.  Per-query cost falls as the column refines itself; no
index was ever created explicitly.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import Database, available_strategies
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL


def main() -> None:
    rng = np.random.default_rng(7)
    db = Database("quickstart")
    db.create_table(
        "events",
        {
            "key": rng.integers(0, 1_000_000, size=500_000),
            "amount": rng.uniform(0, 100, size=500_000),
        },
    )
    db.set_indexing("events", "key", "cracking")
    print("available strategies:", ", ".join(available_strategies()))

    print("\nrunning 1000 random range queries (0.1% selectivity) ...")
    costs = []
    with db.session(name="quickstart") as session:
        for _ in range(1000):
            low = int(rng.integers(0, 999_000))
            result = session.query("events").where("key", low, low + 1_000).run()
            costs.append(DEFAULT_MAIN_MEMORY_MODEL.cost(result.counters))

        # from here on the database keeps the linearized operation history
        db.record_journal = True

        # verify one query by hand against the base column
        sample_low = 123_456
        result = (
            session.query("events")
            .where("key", sample_low, sample_low + 1_000)
            .select("amount")
            .agg("sum", "amount")
            .run()
        )
        keys = db.table("events")["key"].values
        expected = np.flatnonzero((keys >= sample_low) & (keys < sample_low + 1_000))
        assert set(result.positions.tolist()) == set(expected.tolist())
        print(
            f"spot check [{sample_low}, {sample_low + 1_000}): "
            f"{result.row_count} rows, sum(amount) = {result.aggregates['sum(amount)']:.1f}"
        )

        # the structure the 1000 queries refined (the insert below rebuilds
        # plain cracking from scratch — the honest cost of a non-updatable
        # design, and what the updatable strategies avoid)
        refined = [
            f"{record['mode']} — {record['structure']} "
            f"({record['nbytes']:,} index bytes)"
            for record in db.physical_design_report()
        ]

        # an insert rides along mid-stream, fenced against in-flight cracks
        session.insert_row("events", {"key": sample_low, "amount": 1.0})
        after = session.query("events").where("key", sample_low, sample_low + 1).run()
        assert 500_000 in after.positions.tolist()

        stats = session.stats()

    # the operations recorded since record_journal was set, in sequence order
    journal = [(record.sequence, record.kind) for record in db.operation_journal()]
    # dropping the table drops its access path with it
    db.drop_table("events")
    assert db.table_names == [] and db.physical_design_report() == []

    print(f"\nfirst query cost      : {costs[0]:12.0f}   (copy + first crack)")
    print(f"10th query cost       : {costs[9]:12.0f}")
    print(f"100th query cost      : {costs[99]:12.0f}")
    print(f"1000th query cost     : {costs[-1]:12.0f}   (near index-lookup cost)")
    for line in refined:
        print(f"physical design       : {line}")
    print(
        f"session statistics    : {stats.queries_executed} queries, "
        f"{stats.rows_inserted} insert(s), all through one lock-aware handle"
    )
    print(
        "operation journal     : "
        + ", ".join(f"#{sequence} {kind}" for sequence, kind in journal)
    )
    print("\nthe column was never sorted and no CREATE INDEX was ever issued;")
    print("every query left the data a little better organised than it found it.")


if __name__ == "__main__":
    main()
