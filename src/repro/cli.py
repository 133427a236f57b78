"""Command-line interface.

The subcommands cover the common interactive uses of the library without
writing any Python:

``python -m repro strategies``
    list the registered indexing strategies;
``python -m repro compare``
    run the adaptive-indexing benchmark over a synthetic column and workload
    for a set of strategies and print (or export) the summary;
``python -m repro demo``
    a tiny guided run of database cracking showing per-query cost collapse;
``python -m repro updates``
    drive a mixed query/insert/delete workload through the lock-aware
    session front door (``Database.session()`` — queries via the fluent
    builder, DML fenced on the table gate) for any indexing strategy and
    report update throughput and per-query cost;
``python -m repro snapshot``
    recover a durable data directory and write a fresh column-store
    snapshot (truncating the journal it covers);
``python -m repro recover``
    crash-recover a durable data directory and report what recovery did:
    the snapshot used, replayed operation counts, journal records scanned,
    whether a torn tail was tolerated, and the wall-clock time;
``python -m repro lint``
    run the static analyzer, reprolint (the concurrency invariants), over
    the tree; a finding is silenced only by a reasoned inline ignore, and
    ``--format json`` prints one document.

Durability: ``updates`` accepts ``--data-dir`` (journal every
DML to a write-ahead log under that directory) and ``--sync`` (the fsync
policy: ``always``, ``batch`` group commit, or ``off``).  A directory
written by one run is reopened with ``repro recover``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis_tools import reprolint
from repro.core.strategies import available_strategies
from repro.version import __version__
from repro.workloads.benchmark import AdaptiveIndexingBenchmark, run_operations
from repro.workloads.generators import (
    WorkloadSpec,
    generate_column_data,
    make_workload,
    random_workload,
)
from repro.workloads.reporting import (
    render_markdown_table,
    render_text_table,
    write_csv,
)


_EXAMPLES = """examples:
  repro compare --strategies cracking,partitioned-cracking --partitions 8 --parallel
  repro updates --strategy cracking --data-dir ./state --sync batch
  repro recover --data-dir ./state         # replay the journal, report counts
  repro snapshot --data-dir ./state        # compact the journal into a snapshot
  repro lint --format json                 # the static analyzer, as CI runs it

--parallel lets a partitioned column hand sub-selections to a thread pool.
The column decides per query: only a crack about to move 32k elements or more
is handed over, which at 1M rows / 8 partitions is the cold first query
(docs/PERFORMANCE.md); smaller pieces are cracked on the calling thread.
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive indexing in modern database kernels (EDBT 2012 reproduction)",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("strategies", help="list registered indexing strategies")

    compare = subparsers.add_parser(
        "compare", help="run the adaptive-indexing benchmark over a synthetic workload"
    )
    compare.add_argument("--rows", type=int, default=100_000, help="column size")
    compare.add_argument("--queries", type=int, default=500, help="number of range queries")
    compare.add_argument("--selectivity", type=float, default=0.01, help="query selectivity")
    compare.add_argument(
        "--pattern",
        default="random",
        choices=["random", "skewed", "sequential", "periodic", "piecewise"],
        help="workload access pattern",
    )
    compare.add_argument(
        "--strategies",
        default="scan,sort-first,cracking,adaptive-merging,hybrid-crack-sort",
        help="comma-separated strategy names (see `repro strategies`)",
    )
    compare.add_argument("--seed", type=int, default=0, help="random seed")
    compare.add_argument(
        "--partitions", type=int, default=4,
        help="shard count for partitioned-cracking",
    )
    compare.add_argument(
        "--parallel", action="store_true",
        help="fan partitioned-cracking's sub-selections out over a worker pool",
    )
    compare.add_argument(
        "--policy", default="ripple", choices=["ripple", "gradual"],
        help="pending-update merge policy for updatable-cracking",
    )
    compare.add_argument(
        "--merge-batch", type=int, default=16,
        help="gradual-policy merge budget for updatable-cracking",
    )
    compare.add_argument(
        "--format", default="text", choices=["text", "markdown", "csv"],
        help="output format for the summary table",
    )
    compare.add_argument(
        "--series-csv", default=None, metavar="PATH",
        help="also write the per-query cost series as CSV to PATH",
    )

    demo = subparsers.add_parser("demo", help="tiny guided database-cracking demo")
    demo.add_argument("--rows", type=int, default=200_000)
    demo.add_argument("--queries", type=int, default=200)

    updates = subparsers.add_parser(
        "updates",
        help="run a mixed query/insert/delete workload through the Database DML",
    )
    updates.add_argument("--rows", type=int, default=100_000, help="initial table size")
    updates.add_argument("--queries", type=int, default=200, help="number of range queries")
    updates.add_argument(
        "--updates-per-query", type=float, default=1.0,
        help="expected inserts+deletes between consecutive queries",
    )
    updates.add_argument("--selectivity", type=float, default=0.01, help="query selectivity")
    updates.add_argument(
        "--strategy", default="updatable-cracking",
        help="indexing mode for the key column (any registered strategy)",
    )
    updates.add_argument(
        "--policy", default="ripple", choices=["ripple", "gradual"],
        help="pending-update merge policy for updatable-cracking",
    )
    updates.add_argument(
        "--merge-batch", type=int, default=16,
        help="gradual-policy merge budget for updatable-cracking",
    )
    updates.add_argument(
        "--partitions", type=int, default=4,
        help="shard count for partitioned-cracking",
    )
    updates.add_argument(
        "--parallel", action="store_true",
        help="fan partitioned-cracking's sub-selections out over a worker pool",
    )
    _add_durability_arguments(updates)
    updates.add_argument("--seed", type=int, default=0, help="random seed")

    snapshot = subparsers.add_parser(
        "snapshot",
        help="recover a durable data directory and write a fresh snapshot",
    )
    snapshot.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="data directory holding the write-ahead journal and snapshots",
    )
    snapshot.add_argument(
        "--sync", default="batch", choices=["always", "batch", "off"],
        help="fsync policy for journal writes after the snapshot "
             "(default: batch group commit)",
    )

    recover = subparsers.add_parser(
        "recover",
        help="crash-recover a durable data directory and report what replayed",
    )
    recover.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="data directory holding the write-ahead journal and snapshots",
    )
    recover.add_argument(
        "--sync", default="batch", choices=["always", "batch", "off"],
        help="fsync policy for journal writes after recovery "
             "(default: batch group commit)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run reprolint, the static analyzer of the concurrency "
             "invariants; --format json prints one document",
    )
    reprolint.add_arguments(lint)
    return parser


def _add_durability_arguments(subparser: argparse.ArgumentParser) -> None:
    """Write-ahead-journal knobs of the DML-driving ``updates`` subcommand."""
    subparser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="journal every DML to a write-ahead log under DIR (the "
             "directory must not already hold durable state; reopen it "
             "with `repro recover`)",
    )
    subparser.add_argument(
        "--sync", default="batch", choices=["always", "batch", "off"],
        help="journal fsync policy: 'always' fsyncs every commit, 'batch' "
             "group-commits (default), 'off' leaves flushing to the OS",
    )


def _partition_flags_error(args: argparse.Namespace) -> Optional[str]:
    """Validation message for the shared partition/update flags, or None."""
    if args.partitions < 1:
        return "--partitions must be >= 1"
    if args.merge_batch < 1:
        return "--merge-batch must be >= 1"
    return None


def _command_strategies() -> int:
    for name in available_strategies():
        print(name)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    strategies = [name.strip() for name in args.strategies.split(",") if name.strip()]
    unknown = [name for name in strategies if name not in available_strategies()]
    if unknown:
        print(
            f"unknown strategies: {', '.join(unknown)}; "
            f"available: {', '.join(available_strategies())}",
            file=sys.stderr,
        )
        return 2
    error = _partition_flags_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    values = generate_column_data(args.rows, 0, 1_000_000, seed=args.seed)
    spec = WorkloadSpec(
        domain_low=0,
        domain_high=1_000_000,
        query_count=args.queries,
        selectivity=args.selectivity,
        seed=args.seed + 1,
    )
    queries = make_workload(args.pattern, spec)
    harness = AdaptiveIndexingBenchmark(values, queries)
    options = {
        "partitioned-cracking": {
            "partitions": args.partitions,
            "parallel": args.parallel,
        },
        "updatable-cracking": {
            "policy": args.policy,
            "merge_batch": args.merge_batch,
        },
    }
    result = harness.run(
        {name: (name, options.get(name, {})) for name in strategies}
    )

    if args.format == "markdown":
        print(render_markdown_table(result))
    elif args.format == "csv":
        from repro.workloads.reporting import summary_csv

        print(summary_csv(result), end="")
    else:
        print(
            f"column: {args.rows:,} rows | workload: {args.queries} {args.pattern} "
            f"queries at {args.selectivity:.2%} selectivity"
        )
        print(
            f"scan cost/query = {result.scan_cost:,.0f}, "
            f"full-index cost/query = {result.full_index_cost:,.0f}\n"
        )
        print(render_text_table(result))
        structures = {
            label: run.final_structure
            for label, run in result.runs.items()
            if run.final_structure and "partition" in run.final_structure
        }
        if structures:
            print()
            for label, structure in structures.items():
                print(f"physical state [{label}]: {structure}")
    if args.series_csv:
        write_csv(args.series_csv, result)
        print(f"\nper-query series written to {args.series_csv}")
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    values = generate_column_data(args.rows, 0, 1_000_000, seed=0)
    spec = WorkloadSpec(query_count=args.queries, selectivity=0.001, seed=0)
    run = AdaptiveIndexingBenchmark(values, random_workload(spec)).run_strategy(
        "cracking"
    )
    costs = run.statistics.per_query_cost()
    checkpoints = [0, 1, 4, 9, 49, 99, len(costs) - 1]
    print(f"database cracking over {args.rows:,} rows, {args.queries} queries:")
    for point in checkpoints:
        if point < len(costs):
            print(f"  query {point + 1:>4d}: logical cost {costs[point]:>12.0f}")
    print(f"  structure: {run.final_structure}")
    return 0


def _command_updates(args: argparse.Namespace) -> int:
    from repro.workloads.updates import mixed_update_workload

    if args.strategy not in available_strategies():
        print(
            f"unknown strategy {args.strategy!r}; "
            f"available: {', '.join(available_strategies())}",
            file=sys.stderr,
        )
        return 2
    if args.rows < 1 or args.queries < 1:
        print("--rows and --queries must be >= 1", file=sys.stderr)
        return 2
    if args.updates_per_query < 0:
        print("--updates-per-query must be non-negative", file=sys.stderr)
        return 2
    error = _partition_flags_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    values = generate_column_data(args.rows, 0, 1_000_000, seed=args.seed)
    try:
        database = _make_database("updates-demo", args)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    database.create_table("data", {"key": values})
    if args.strategy != "scan":
        options = {}
        if args.strategy == "updatable-cracking":
            options.update(policy=args.policy, merge_batch=args.merge_batch)
        if args.strategy == "partitioned-cracking":
            options.update(partitions=args.partitions, parallel=args.parallel)
        database.set_indexing("data", "key", args.strategy, **options)

    spec = WorkloadSpec(
        domain_low=0.0,
        domain_high=1_000_000.0,
        query_count=args.queries,
        selectivity=args.selectivity,
        seed=args.seed + 1,
    )
    stream = mixed_update_workload(spec, updates_per_query=args.updates_per_query)
    with database.session(name="updates-cli") as session:
        statistics = run_operations(
            session, stream, args.strategy, rows=args.rows,
            victim_seed=args.seed + 2,
        )
    query_costs = statistics.per_query_cost()
    update_count = statistics.update_count
    update_seconds = statistics.wall_seconds - statistics.total_seconds

    mean_cost = float(np.mean(query_costs)) if query_costs else 0.0
    tail = query_costs[-max(1, len(query_costs) // 10):]
    print(
        f"table: {args.rows:,} rows | strategy: {args.strategy} | "
        f"{len(query_costs)} queries, {update_count} updates "
        f"({args.updates_per_query:.2f} updates/query)"
    )
    if update_count:
        print(
            f"update throughput : {update_count / max(update_seconds, 1e-9):>12,.0f} updates/s "
            f"({update_seconds * 1e3:.1f} ms total)"
        )
    print(
        f"query cost        : mean {mean_cost:>12,.0f}, "
        f"tail mean {float(np.mean(tail)):>12,.0f} "
        f"(scan would be {3 * database.visible_row_count('data'):>12,.0f})"
    )
    print(f"query wall-clock  : {statistics.total_seconds * 1e3:.1f} ms total")
    for record in database.physical_design_report():
        print(f"physical design   : {record['mode']} — {record['structure']}")
    _report_durability(database, args)
    database.close()
    return 0


def _make_database(name: str, args: argparse.Namespace):
    """A Database honouring the shared ``--data-dir`` / ``--sync`` flags.

    Raises ``ValueError`` when the directory already holds durable state
    (the caller surfaces it as a CLI error pointing at ``repro recover``).
    """
    from pathlib import Path

    from repro.durability.manager import DurabilityConfig
    from repro.engine.database import Database

    if args.data_dir is None:
        return Database(name)
    return Database(
        name,
        data_dir=Path(args.data_dir),
        durability=DurabilityConfig(sync=args.sync),
    )


def _report_durability(database, args: argparse.Namespace) -> None:
    """One summary line for the journal a durable run just wrote."""
    manager = database.durability
    if manager is None:
        return
    stats = manager.stats()
    print(
        f"durability        : {stats['appended_records']} journal records, "
        f"{stats['fsync_calls']} fsyncs (sync={args.sync}), "
        f"{stats['rotations']} segment rotations, "
        f"{stats['snapshots_written']} snapshots "
        f"-> {args.data_dir}"
    )


def _print_recovery_report(report) -> None:
    replayed = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(report.replayed_operations.items())
    ) or "nothing"
    snapshot = (
        f"{report.snapshot_path} (high water {report.snapshot_high_water})"
        if report.snapshot_path is not None
        else "none (journal only)"
    )
    print(f"recovered         : {report.data_dir}")
    print(f"recovery time     : {report.elapsed_seconds * 1e3:.1f} ms")
    print(f"snapshot used     : {snapshot}")
    if report.skipped_snapshots:
        for reason in report.skipped_snapshots:
            print(f"snapshot skipped  : {reason}")
    print(
        f"journal scanned   : {report.wal_records} records"
        f"{' (torn tail truncated)' if report.torn_tail else ''}"
    )
    print(f"replayed          : {report.replayed_total} operations ({replayed})")
    print(f"next sequence     : {report.next_sequence}")


def _open_durable(args: argparse.Namespace):
    """``Database.open`` for the snapshot/recover subcommands, or None."""
    from pathlib import Path

    from repro.durability.manager import DurabilityConfig, has_durable_state
    from repro.engine.database import Database
    from repro.durability.recovery import RecoveryError

    data_dir = Path(args.data_dir)
    if not has_durable_state(data_dir):
        print(
            f"no durable state under {data_dir} (expected wal/*.seg or "
            f"snapshots/*.snap; seed one with `repro updates --data-dir`)",
            file=sys.stderr,
        )
        return None
    try:
        return Database.open(
            data_dir, durability=DurabilityConfig(sync=args.sync)
        )
    except RecoveryError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return None


def _command_recover(args: argparse.Namespace) -> int:
    database = _open_durable(args)
    if database is None:
        return 1
    _print_recovery_report(database.recovery_report)
    for table in sorted(database.table_names):
        print(
            f"table             : {table} "
            f"({database.visible_row_count(table):,} visible rows)"
        )
    database.close()
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    database = _open_durable(args)
    if database is None:
        return 1
    _print_recovery_report(database.recovery_report)
    path = database.snapshot()
    print(f"snapshot written  : {path}")
    database.close()
    return 0


def _command_lint(args) -> int:
    """Run reprolint; its exit status is the command's."""
    return reprolint.report(args.paths, args.format)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (returns the process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "strategies":
        return _command_strategies()
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "demo":
        return _command_demo(args)
    if args.command == "updates":
        return _command_updates(args)
    if args.command == "snapshot":
        return _command_snapshot(args)
    if args.command == "recover":
        return _command_recover(args)
    if args.command == "lint":
        return _command_lint(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
