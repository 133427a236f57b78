"""The traced run: one seeded stream replayed up a ladder of rungs.

Each rung is a fresh structure one layer higher than the last, and every
call into the program is a span recorded from this file (``e21_trace``):

    scan_select -> FullIndex.search -> CrackedColumn.search ->
    create_strategy(...).search -> {table_gate().read(), Planner.plan,
    classify_plan, AccessPathLockManager.locked, Executor.execute} step by
    step on a twin database -> Session.execute

and for writes

    Table.append_rows / UpdatableCrackedColumn.insert|delete|update ->
    encode_record / frame_record -> WriteAheadLog.append|sync ->
    Session.*_row with data_dir=None / sync=off / batch / always ->
    SnapshotStore.write|load -> WriteAheadLog.scan -> Database.open

The workload named on the command line chooses the stream's call style
(float or Python-int bounds) and, through the seed, its ranges; the rungs
are the same for every workload, so every per-layer metric is measured on
every traced run.  Answers are checked against the oracle outside the
spans, as in the end-to-end run.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from e21_common import (
    BATCH_SIZE,
    KEY,
    MAX_WORKERS,
    PAY,
    ROW_BYTES,
    SUM_PAY,
    TABLE,
    Bounds,
    Dataset,
    make_query,
    median,
    percentile,
    query_stream,
    scaled,
    steady,
)
from e21_oracle import DML_MIX, DML_NAMES, DmlPlanner, ShadowTable
from e21_trace import ROOT, Tracer
from e21_workloads import Measurement, Report, Workload, new_database
from repro.columnstore.operators import aggregate
from repro.columnstore.reconstruct import late_reconstruct
from repro.columnstore.select import RangePredicate, scan_select
from repro.columnstore.table import Table
from repro.core.cracking.cracked_column import CrackedColumn
from repro.core.cracking.updates import UpdatableCrackedColumn
from repro.core.hybrids.hybrid_index import HybridIndex
from repro.core.merging.adaptive_merge import AdaptiveMergingIndex
from repro.core.partitioned import PartitionedCrackedColumn
from repro.core.strategies import create_strategy
from repro.cost.counters import CostCounters
from repro.durability.manager import DurabilityConfig, snapshot_directory, wal_directory
from repro.durability.record import WalRecord, encode_record, frame_record
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import WriteAheadLog
from repro.engine.concurrency import AccessPathLockManager, classify_plan, schedule_batch
from repro.engine.database import Database
from repro.indexes.full_index import FullIndex

#: rung sizes at scale 1 (``--seconds 15``); the traced run scales them like
#: the end-to-end op counts
N_KERNEL = 3_000  # raw cracking, strategy wrapper, updatable search
N_ENGINE = 900  # session twins in lock-step (classification is the cost)
N_SCAN = 200
N_FULL_INDEX = 300
N_MERGE = 100
N_HYBRID = 12  # ~90 ms a query today: too slow for more
N_PARTITIONED = 400  # each of sequential / threaded
N_BATCHES = 12
N_APPEND = 1_000
N_RECORDS = 1_000
N_WAL_SYNC = 50
N_KERNEL_DML = 300  # iterations of insert + delete + update
N_SESSION_DML = 250
N_SESSION_DML_ALWAYS = 100  # one fsync per op
N_REPLAY = 150
BUILD_REPS = 3

#: the DML ladder's configurations: label -> sync mode (None = no data_dir)
DML_CONFIGS = (("none", None), ("off", "off"), ("batch", "batch"), ("always", "always"))
#: weights of insert/delete/update in the workloads' DML mix, for pooled costs
DML_WEIGHTS = {DML_NAMES[kind]: share for kind, share in DML_MIX}


class _Ladder:
    def __init__(self, workload: Workload, dataset: Dataset, seed: int,
                 scale: float, scratch: Path) -> None:
        self.dataset = dataset
        self.scale = scale
        self.scratch = scratch
        self.seed = seed
        self.tracer = Tracer()
        self.report = Report(workload.name)
        self.oracle = ShadowTable(dataset)
        self.stream = query_stream(seed + 2, self.n(N_KERNEL, 30), workload.int_bounds)
        self.batch_stream = query_stream(
            seed + 4, self.n(N_BATCHES, 2) * BATCH_SIZE, workload.int_bounds
        )

    # -- helpers -------------------------------------------------------------------

    def n(self, count: int, minimum: int = 3) -> int:
        return scaled(count, self.scale, minimum)

    def emit(self, name: str, value: float, unit: str, samples: int) -> None:
        self.report.metrics[name] = Measurement(float(value), unit, samples)

    def emit_p50(self, name: str, seconds: Sequence[float], unit: str = "us",
                 with_p99: bool = False) -> float:
        """``<name>_p50_<unit>``, and ``_p99_`` on the rungs long enough for one."""
        factor = {"us": 1e6, "ms": 1e3}[unit]
        value = median(seconds) * factor
        self.emit(f"{name}_p50_{unit}", value, unit, len(seconds))
        if with_p99:
            self.emit(f"{name}_p99_{unit}", percentile(seconds, 99) * factor, unit,
                      len(seconds))
        return value

    def check_count(self, oracle: ShadowTable, bounds: Bounds, positions) -> None:
        self.report.check_answer(oracle, bounds, len(positions), None)

    def check_result(self, oracle: ShadowTable, bounds: Bounds, result) -> None:
        self.report.check_answer(oracle, bounds, result.row_count,
                                 result.aggregates.get(SUM_PAY))

    def search_rung(self, span: str, search: Callable, count: int,
                    oracle: Optional[ShadowTable] = None) -> List[float]:
        """``search(low, high, counters)`` over the stream's first ``count``
        ranges, one root span each; returns the latencies and leaves the
        summed counters in ``self.last_counters``."""
        tracer = self.tracer
        oracle = oracle or self.oracle
        total = CostCounters()
        latencies = []
        gc.collect()
        for bounds in self.stream[:count]:
            counters = CostCounters()
            elapsed, positions = tracer.call(
                span, tracer.new_op(), ROOT, search, bounds[0], bounds[1], counters
            )
            latencies.append(elapsed)
            total += counters
            self.check_count(oracle, bounds, positions)
        self.last_counters = total
        return latencies

    def new_database(self, mode: str, data_dir: Optional[Path] = None,
                     sync: Optional[str] = None, **options) -> Database:
        return new_database(self.dataset, mode, options, data_dir,
                            DurabilityConfig(sync=sync) if sync else None)

    # -- read rungs -----------------------------------------------------------------

    def columnstore(self) -> None:
        tracer, columns = self.tracer, self.dataset.columns()
        builds = [
            tracer.call("columnstore.create_table", tracer.new_op(), ROOT,
                        Table, TABLE, columns)
            for _ in range(BUILD_REPS)
        ]
        self.emit("columnstore.create_table_s", median([b[0] for b in builds]),
                  "s", len(builds))
        table = builds[-1][1]
        key_column = table.column(KEY)
        scans = self.search_rung(
            "columnstore.scan_select",
            lambda low, high, counters: scan_select(
                key_column, RangePredicate(low, high), counters
            ),
            self.n(N_SCAN),
        )
        self.emit_p50("columnstore.scan_select", scans)
        appends = []
        rng = np.random.default_rng(self.seed + 5)
        for key in rng.integers(0, 10_000_000, size=self.n(N_APPEND)):
            elapsed, _ = tracer.call(
                "columnstore.append_rows", tracer.new_op(), ROOT,
                table.append_rows, {KEY: int(key), PAY: 1.0},
            )
            appends.append(elapsed)
        self.emit_p50("columnstore.append_rows", appends)

    def full_index(self) -> None:
        tracer = self.tracer
        builds = [
            tracer.call("indexes.full_index.build", tracer.new_op(), ROOT,
                        FullIndex, self.dataset.keys)
            for _ in range(BUILD_REPS)
        ]
        self.emit("indexes.full_index.build_s", median([b[0] for b in builds]),
                  "s", len(builds))
        searches = self.search_rung(
            "indexes.full_index.search", builds[-1][1].search, self.n(N_FULL_INDEX)
        )
        self.emit_p50("indexes.full_index.search", searches)

    def cracking(self) -> None:
        keys = self.dataset.keys
        cracked = CrackedColumn(keys)
        raw = self.search_rung("core.cracking.search", cracked.search, len(self.stream))
        self.raw_latencies = raw
        self.emit("core.cracking.search_first_ms", raw[0] * 1e3, "ms", 1)
        self.emit_p50("core.cracking.search", steady(raw), with_p99=True)
        counters = self.last_counters
        self.emit("core.cracking.comparisons_total", counters.comparisons, "count", len(raw))
        self.emit("core.cracking.movements_total", counters.tuples_moved, "count", len(raw))
        self.emit("core.cracking.pieces_final", cracked.piece_count, "count", 1)
        self.emit("core.cracking.aux_bytes_per_user_byte",
                  cracked.nbytes / keys.nbytes, "ratio", 1)

        strategy = create_strategy("cracking", keys)
        wrapped = self.search_rung("core.strategies.search", strategy.search,
                                   len(self.stream))
        p50 = self.emit_p50("core.strategies.search", steady(wrapped), with_p99=True)
        self.emit("core.strategies.overhead_us",
                  p50 - median(steady(raw)) * 1e6, "us", len(steady(wrapped)))

    def merging(self) -> None:
        index = AdaptiveMergingIndex(self.dataset.keys)
        latencies = self.search_rung("core.merging.search", index.search,
                                     self.n(N_MERGE, 6))
        self.emit("core.merging.search_first_ms", latencies[0] * 1e3, "ms", 1)
        self.emit_p50("core.merging.search", steady(latencies))
        counters = self.last_counters
        self.emit("core.merging.comparisons_total", counters.comparisons, "count",
                  len(latencies))
        self.emit("core.merging.movements_total", counters.tuples_moved, "count",
                  len(latencies))

    def hybrids(self) -> None:
        index = HybridIndex(self.dataset.keys, initial_mode="crack", final_mode="sort")
        latencies = self.search_rung("core.hybrids.crack_sort.search", index.search,
                                     self.n(N_HYBRID))
        self.emit_p50("core.hybrids.crack_sort.search", latencies, unit="ms")

    def partitioned(self) -> None:
        medians = {}
        for label, parallel in (("seq", False), ("thread", True)):
            column = PartitionedCrackedColumn(
                self.dataset.keys, partitions=8, parallel=parallel,
                max_workers=MAX_WORKERS,
            )
            try:
                latencies = self.search_rung(
                    f"core.partitioned.search_{label}", column.search,
                    self.n(N_PARTITIONED, 6),
                )
            finally:
                column.close()
            medians[label] = self.emit_p50(f"core.partitioned.search_{label}",
                                           steady(latencies))
        self.emit("core.partitioned.thread_over_seq",
                  medians["thread"] / medians["seq"], "ratio", 1)

    # -- the session path, step by step ------------------------------------------------

    def engine(self) -> None:
        """Four twin databases answer the same queries in lock-step:

        * ``traced``   — ``Session.execute`` as one span;
        * ``stepwise`` — the calls ``Session.execute`` makes, one span each;
        * ``inside``   — the calls ``Executor.execute`` makes, one span each;
        * ``plain``    — ``Session.execute`` timed without the tracer, for
          ``trace.overhead_pct``.
        """
        tracer = self.tracer
        count = min(self.n(N_ENGINE, 30), len(self.stream))
        twins = {name: self.new_database("cracking")
                 for name in ("traced", "stepwise", "inside", "plain")}
        sessions = {name: twins[name].session(max_workers=MAX_WORKERS)
                    for name in ("traced", "plain")}
        stepwise, inside = twins["stepwise"], twins["inside"]
        path_locks = AccessPathLockManager()
        gate = stepwise.table_gate(TABLE)
        inside_table = inside.table(TABLE)
        spans: Dict[str, List[float]] = {name: [] for name in (
            "execute", "plain", "gate", "plan", "classify", "path_lock",
            "executor", "index_select", "reconstruct_agg", "self",
        )}

        def enter_and_leave(manager) -> None:
            with manager:
                pass

        def reconstruct_and_aggregate(positions, counters) -> float:
            values = late_reconstruct(inside_table, positions, [PAY], counters)[PAY]
            return aggregate(values, "sum", counters)

        gc.collect()
        for bounds in self.stream[:count]:
            query = make_query(bounds)
            # the traced session
            op = tracer.new_op()
            execute, result = tracer.call(
                "engine.session.execute", op, ROOT, sessions["traced"].execute, query
            )
            self.check_result(self.oracle, bounds, result)
            # the same work, one public call at a time
            op = tracer.new_op()
            root = tracer.open("engine.session.stepwise", op)
            gate_s, _ = tracer.call("engine.concurrency.gate", op, root,
                                    enter_and_leave, gate.read())
            plan_s, plan = tracer.call("engine.planner.plan", op, root,
                                       stepwise.planner.plan, query)
            classify_s, claims = tracer.call("engine.concurrency.classify", op, root,
                                             classify_plan, stepwise, plan)
            lock_s, _ = tracer.call("engine.concurrency.path_lock", op, root,
                                    enter_and_leave, path_locks.locked(claims))
            executor_s, result = tracer.call("engine.executor.execute", op, root,
                                             stepwise.executor.execute, plan,
                                             CostCounters())
            tracer.close(root)
            self.check_result(self.oracle, bounds, result)
            # what the executor does, one public call at a time
            op = tracer.new_op()
            root = tracer.open("engine.executor.stepwise", op)
            counters = CostCounters()
            select_s, positions = tracer.call(
                "engine.database.index_select", op, root,
                inside.index_select, TABLE, KEY, bounds[0], bounds[1], counters,
            )
            reconstruct_s, _ = tracer.call("columnstore.reconstruct_agg", op, root,
                                           reconstruct_and_aggregate, positions, counters)
            tracer.close(root)
            self.check_count(self.oracle, bounds, positions)
            # and the session with no tracer in sight
            started = time.perf_counter()
            result = sessions["plain"].execute(query)
            plain = time.perf_counter() - started
            self.check_result(self.oracle, bounds, result)

            for name, value in (
                ("execute", execute), ("plain", plain), ("gate", gate_s),
                ("plan", plan_s), ("classify", classify_s), ("path_lock", lock_s),
                ("executor", executor_s), ("index_select", select_s),
                ("reconstruct_agg", reconstruct_s),
                ("self", execute - (gate_s + plan_s + classify_s + lock_s + executor_s)),
            ):
                spans[name].append(value)
        for session in sessions.values():
            session.close()
        for twin in twins.values():
            twin.close()

        window = {name: steady(values) for name, values in spans.items()}
        execute_p50 = self.emit_p50("engine.session.execute", window["execute"])
        self.emit_p50("engine.session.self", window["self"])
        self.emit_p50("engine.planner.plan", window["plan"])
        self.emit_p50("engine.concurrency.classify", window["classify"])
        self.emit_p50("engine.concurrency.gate", window["gate"])
        self.emit_p50("engine.concurrency.path_lock", window["path_lock"])
        self.emit_p50("engine.executor.execute", window["executor"])
        self.emit_p50("engine.database.index_select", window["index_select"])
        self.emit_p50("columnstore.reconstruct_agg", window["reconstruct_agg"])
        raw_p50 = median(steady(self.raw_latencies[:count])) * 1e6
        self.emit("engine.session.over_raw", execute_p50 / raw_p50, "ratio",
                  len(window["execute"]))
        plain_p50 = median(window["plain"]) * 1e6
        self.emit("trace.overhead_pct", (execute_p50 / plain_p50 - 1.0) * 100.0,
                  "%", len(window["plain"]))

    def batches(self) -> None:
        tracer = self.tracer
        database = self.new_database(
            "partitioned-cracking", partitions=8, parallel=True, max_workers=MAX_WORKERS
        )
        schedule_s, batch_s = [], []
        with database.session(max_workers=MAX_WORKERS) as session:
            for start in range(0, len(self.batch_stream), BATCH_SIZE):
                stretch = self.batch_stream[start:start + BATCH_SIZE]
                queries = [make_query(bounds) for bounds in stretch]
                plans = [database.planner.plan(query) for query in queries]
                elapsed, _ = tracer.call(
                    "engine.concurrency.schedule_batch", tracer.new_op(), ROOT,
                    schedule_batch, database, plans,
                )
                schedule_s.append(elapsed)
                elapsed, results = tracer.call(
                    "engine.session.execute_many", tracer.new_op(), ROOT,
                    session.execute_many, queries, True, MAX_WORKERS,
                )
                batch_s.append(elapsed)
                for bounds, result in zip(stretch, results):
                    self.check_result(self.oracle, bounds, result)
        database.close()
        self.emit_p50("engine.concurrency.schedule_batch", schedule_s)
        self.emit_p50("engine.session.execute_many", batch_s, unit="ms")

    # -- write rungs --------------------------------------------------------------------

    def dml_rung(self, prefix: str, iterations: int, oracle: ShadowTable,
                 insert, delete, update, search) -> Dict[str, List[float]]:
        """``iterations`` of insert + delete + update (one root span each),
        a checked search after every fourth so pending queues get merged."""
        tracer = self.tracer
        planner = DmlPlanner(
            oracle.rows, np.random.default_rng(self.seed + 6),
            dead=np.flatnonzero(~oracle.alive[:oracle.rows]),
        )
        latencies: Dict[str, List[float]] = {"insert": [], "delete": [], "update": []}
        gc.collect()
        for iteration in range(iterations):
            for kind, call in (("i", insert), ("d", delete), ("u", update)):
                op = planner.op(kind)
                # ("i", key, pay, new) / ("d", victim) / ("u", victim, key, new)
                elapsed, rowid = tracer.call(f"{prefix}.{DML_NAMES[kind]}",
                                             tracer.new_op(), ROOT, call, *op[1:3])
                latencies[DML_NAMES[kind]].append(elapsed)
                oracle.apply(op)
                self.report.attempted += 1
                if kind != "d" and rowid != op[3]:
                    self.report.fail(f"{prefix}: {kind} landed on rowid {rowid}, "
                                     f"expected {op[3]}")
            if iteration % 4 == 3:
                bounds = self.stream[iteration % len(self.stream)]
                search(bounds)
        return latencies

    def updatable_kernel(self) -> None:
        column = UpdatableCrackedColumn(self.dataset.keys)
        oracle = self.oracle.fork()
        searches = self.search_rung("core.cracking.updates.search", column.search,
                                    len(self.stream), oracle)
        self.emit_p50("core.cracking.updates.search", steady(searches), with_p99=True)

        def search(bounds: Bounds) -> None:
            elapsed, positions = self.tracer.call(
                "core.cracking.updates.search", self.tracer.new_op(), ROOT,
                column.search, bounds[0], bounds[1], None,
            )
            self.check_count(oracle, bounds, positions)

        latencies = self.dml_rung(
            "core.cracking.updates", self.n(N_KERNEL_DML), oracle,
            insert=lambda key, pay: column.insert(key),
            delete=column.delete, update=column.update, search=search,
        )
        for kind, samples in latencies.items():
            self.emit_p50(f"core.cracking.updates.{kind}", samples)

    def session_dml(self) -> None:
        """The same DML through ``Session.*_row`` under each flush policy;
        the ``batch`` database is kept for the snapshot and recovery rungs."""
        pooled = {}
        for label, sync in DML_CONFIGS:
            data_dir = self.scratch / f"dml-{label}" if sync else None
            database = self.new_database("updatable-cracking", data_dir, sync)
            session = database.session(max_workers=MAX_WORKERS)
            oracle = self.oracle.fork()

            def search(bounds: Bounds) -> None:
                elapsed, result = self.tracer.call(
                    f"engine.session.execute/{label}", self.tracer.new_op(), ROOT,
                    session.execute, make_query(bounds),
                )
                self.check_result(oracle, bounds, result)

            iterations = self.n(N_SESSION_DML_ALWAYS if sync == "always" else N_SESSION_DML)
            latencies = self.dml_rung(
                f"engine.session.dml/{label}", iterations, oracle,
                insert=lambda key, pay: session.insert_row(TABLE, {KEY: key, PAY: pay}),
                delete=lambda rowid: session.delete_row(TABLE, rowid),
                update=lambda rowid, key: session.update_row(TABLE, rowid, {KEY: key}),
                search=search,
            )
            pooled[label] = sum(
                DML_WEIGHTS[kind] * median(samples) for kind, samples in latencies.items()
            )
            if sync is None:
                for kind, samples in latencies.items():
                    self.emit_p50(f"engine.session.{kind}", samples)
            if sync == "batch":
                self.durable = (database, session, oracle, data_dir, 3 * iterations)
            else:
                session.close()
                database.close()
        for label in ("off", "batch", "always"):
            self.emit(f"durability.wal.dml_overhead_{label}_pct",
                      (pooled[label] / pooled["none"] - 1.0) * 100.0, "%", 1)

    def records_and_wal(self) -> None:
        tracer = self.tracer
        planner = DmlPlanner(self.dataset.rows, np.random.default_rng(self.seed + 7))
        records = []
        for sequence, op in enumerate(planner.burst(self.n(N_RECORDS))):
            if op[0] == "i":
                fields = {"kind": "insert", "rowid": op[3],
                          "values": {KEY: op[1], PAY: op[2]}}
            elif op[0] == "d":
                fields = {"kind": "delete", "rowid": op[1]}
            else:
                fields = {"kind": "update", "rowid": op[3],
                          "old_rowid": op[1], "values": {KEY: op[2]}}
            records.append(WalRecord(sequence=sequence, table=TABLE, **fields))
        encodes = [
            tracer.call("durability.record.encode", tracer.new_op(), ROOT,
                        encode_record, record)[0]
            for record in records
        ]
        self.emit_p50("durability.record.encode", encodes)
        frame_bytes = sum(len(frame_record(record)) for record in records)
        self.emit("durability.record.bytes_per_op", frame_bytes / len(records),
                  "bytes", len(records))
        self.emit("durability.wal.bytes_per_user_byte",
                  frame_bytes / (ROW_BYTES * len(records)), "ratio", len(records))

        log = WriteAheadLog(self.scratch / "scratch-wal", sync="off")
        try:
            appends = [
                tracer.call("durability.wal.append", tracer.new_op(), ROOT,
                            log.append, record)[0]
                for record in records
            ]
            syncs = [
                tracer.call("durability.wal.sync", tracer.new_op(), ROOT, log.sync)[0]
                for _ in range(self.n(N_WAL_SYNC))
            ]
        finally:
            log.close()
        self.emit_p50("durability.wal.append", appends)
        self.emit_p50("durability.wal.sync", syncs)

    def snapshot_and_recovery(self) -> None:
        tracer = self.tracer
        database, session, oracle, data_dir, dml_ops = self.durable
        stats = database.durability.stats()
        self.emit("durability.wal.records", stats["appended_records"], "count", 1)
        self.emit("durability.wal.fsync_calls", stats["fsync_calls"], "count", dml_ops)

        snapshot_path = database.snapshot()
        store = SnapshotStore(snapshot_directory(data_dir))
        load_s, state = tracer.call("durability.snapshot.load", tracer.new_op(), ROOT,
                                    store.load, snapshot_path)
        write_s, copy_path = tracer.call(
            "durability.snapshot.write", tracer.new_op(), ROOT,
            SnapshotStore(self.scratch / "snapshot-copy").write, state,
        )
        self.emit("durability.snapshot.load_ms", load_s * 1e3, "ms", 1)
        self.emit("durability.snapshot.write_ms", write_s * 1e3, "ms", 1)
        self.emit("durability.snapshot.bytes_per_user_byte",
                  copy_path.stat().st_size / (oracle.rows * ROW_BYTES), "ratio", 1)
        del state

        # reopen with nothing to replay: the floor the replay rate is read against
        session.close()
        database.close()
        del database, session
        gc.collect()
        config = DurabilityConfig(sync="batch")
        floor_s, database = tracer.call("durability.recovery.open", tracer.new_op(),
                                        ROOT, Database.open, data_dir, None, config)
        session = database.session(max_workers=MAX_WORKERS)

        def search(bounds: Bounds) -> None:
            self.check_result(oracle, bounds, session.execute(make_query(bounds)))

        self.dml_rung(
            "engine.session.dml/reopened", self.n(N_REPLAY), oracle,
            insert=lambda key, pay: session.insert_row(TABLE, {KEY: key, PAY: pay}),
            delete=lambda rowid: session.delete_row(TABLE, rowid),
            update=lambda rowid, key: session.update_row(TABLE, rowid, {KEY: key}),
            search=search,
        )
        session.close()
        database.close()
        del database, session
        gc.collect()

        scan_s, scan = tracer.call("durability.wal.scan", tracer.new_op(), ROOT,
                                   WriteAheadLog.scan, wal_directory(data_dir))
        self.emit("durability.recovery.wal_scan_ms", scan_s * 1e3, "ms", len(scan.records))
        open_s, database = tracer.call("durability.recovery.open", tracer.new_op(),
                                       ROOT, Database.open, data_dir, None, config)
        replayed = database.recovery_report.replayed_total
        self.emit("durability.recovery.replay_ops_per_s",
                  replayed / max(open_s - floor_s, 1e-9), "ops/s", replayed)
        with database.session(max_workers=MAX_WORKERS) as session:
            bounds = self.stream[0]
            first_s, result = tracer.call(
                "durability.recovery.first_query", tracer.new_op(), ROOT,
                session.execute, make_query(bounds),
            )
            self.check_result(oracle, bounds, result)
        database.close()
        self.emit("durability.recovery.first_query_ms", first_s * 1e3, "ms", 1)


def run_ladder(workload: Workload, dataset: Dataset, seed: int, scale: float,
               scratch: Path, span_file: Path) -> Report:
    """Every per-layer metric, once, plus the span file."""
    started = time.perf_counter()
    ladder = _Ladder(workload, dataset, seed, scale, scratch)
    for rung in (
        ladder.columnstore, ladder.full_index, ladder.cracking, ladder.merging,
        ladder.hybrids, ladder.partitioned, ladder.engine, ladder.batches,
        ladder.updatable_kernel, ladder.session_dml, ladder.records_and_wal,
        ladder.snapshot_and_recovery,
    ):
        rung()
        gc.collect()
    tracer = ladder.tracer
    for problem in tracer.problems()[:5]:
        ladder.report.fail(f"span log: {problem}")
    tracer.write_jsonl(span_file)
    report = ladder.report
    report.counts.update(spans=len(tracer), stream=len(ladder.stream))
    report.extras["wall_s"] = Measurement(time.perf_counter() - started, "s", 1)
    return report
