"""A live table: interleaved updates and a shifting query focus.

Demonstrates the two "hard mode" situations for physical design that the
EDBT 2012 tutorial highlights, through the session front door of a
:class:`Database` whose key column runs updatable cracking:

* updates arrive continuously — issued through ``session.insert_row`` /
  ``session.delete_row``, fenced on the table gate against in-flight
  queries — and are merged on demand (ripple merging), so no query ever
  pays for a full index rebuild;
* the query focus jumps to a new key range every 200 queries; the first
  queries after a jump cost more (the new region is still unrefined), then
  cost collapses again — adaptation restarts instantly, with no monitoring
  window and no DBA.

Run with:  python examples/updates_and_shifting_workload.py
"""

import numpy as np

from repro import Database
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL


def main() -> None:
    rng = np.random.default_rng(11)
    db = Database("live-table")
    db.create_table(
        "readings", {"key": rng.integers(0, 1_000_000, size=300_000)}
    )
    db.set_indexing("readings", "key", "updatable-cracking", policy="ripple")
    live_rowids = list(range(300_000))

    phases = [(0, 100_000), (600_000, 700_000), (300_000, 400_000)]
    queries_per_phase = 200
    query_width = 2_000
    costs = []

    with db.session(name="live") as session:
        for phase_index, (focus_low, focus_high) in enumerate(phases):
            for _ in range(queries_per_phase):
                # a couple of updates between queries
                for _ in range(2):
                    if rng.random() < 0.5:
                        live_rowids.append(
                            session.insert_row(
                                "readings",
                                {"key": int(rng.integers(0, 1_000_000))},
                            )
                        )
                    elif live_rowids:
                        victim = live_rowids.pop(
                            int(rng.integers(0, len(live_rowids)))
                        )
                        session.delete_row("readings", victim)
                low = int(rng.integers(focus_low, focus_high - query_width))
                result = (
                    session.query("readings")
                    .where("key", low, low + query_width)
                    .run()
                )
                costs.append(DEFAULT_MAIN_MEMORY_MODEL.cost(result.counters))

            phase_costs = costs[phase_index * queries_per_phase:]
            print(
                f"phase {phase_index + 1}: focus [{focus_low:,}, {focus_high:,}) — "
                f"first query {phase_costs[0]:>10.0f}, "
                f"10th {phase_costs[9]:>9.0f}, "
                f"last {phase_costs[-1]:>9.0f}"
            )

        stats = session.stats()

    column = db.access_path("readings", "key")
    print(
        f"\nprocessed {stats.queries_executed} queries with "
        f"{stats.rows_inserted} inserts and {stats.rows_deleted} deletes "
        f"interleaved; {column.pending_inserts} inserts and "
        f"{column.pending_deletes} deletes are still pending (their key "
        "ranges were never queried)."
    )
    print(f"cracker pieces: {column.piece_count}")
    print(
        "\neach focus shift shows the same pattern: an expensive first touch of the"
        "\nnew region, then rapid convergence — while updates ride along for free"
        "\nuntil a query actually needs their key range."
    )


if __name__ == "__main__":
    main()
