"""The five end-to-end workloads and the runner that measures them.

Load model: a closed loop with **one client thread** — every call into
``Session`` waits for its reply before the next is sent — against one
1M-row table; the only other threads are the program's own pools, capped at
``MAX_WORKERS``.  Tracing is off here; the per-layer numbers come from the
separate traced run in ``e21_ladder``.

The driver's contract wants every end-to-end metric from every workload, so
every workload is built from the same parts, each in that workload's own
configuration:

* **set-up** — ``Database(...)`` + ``create_table`` + ``set_indexing``
  (+ data-directory initialisation);
* **cold start** — a fresh database answering the first query, and on every
  ``cold_every``-th start the first ``cold_queries``, of its own stretch of
  the stream (first-query latency, cumulative adaptation cost);
* **main section** — the workload's own operation mix on the first
  cold-start database (steady latencies, throughput);
* **reopen** — ``Database.open`` of the final state: the live data
  directory on the durable workload, a snapshot-only copy elsewhere.

The parts are **interleaved**: the main section runs in ``rounds`` chunks,
and before each chunk comes one temporary database (set-up, cold start) and
one reopen of the copy.  The recording sandbox changes speed by 20-30 % for
seconds at a time; a metric whose samples all come from one short phase
inherits whatever speed that moment had, while a metric sampled across the
whole run sees the same mixture as every other.  The main database is touched
by its own operations only, so its answers and exact counts do not depend on
the interleaving.

Between the client's calls, never inside one, the runner times
``e21_hostlevel.HostProbe``; every reported timing except ``setup_s`` is the
call's wall-clock time divided by the host's level around it.

Every answer is checked against ``e21_oracle.ShadowTable`` outside the
timed spans; an exception or a wrong answer is a failed operation.
"""

from __future__ import annotations

import gc
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    peak_rss_mb,
    percentile,
    query_stream,
    scaled,
    supported,
)
from e21_hostlevel import STALE_AFTER, HostProbe
from e21_oracle import DML_NAMES, DmlOp, DmlPlanner, ShadowTable
from repro.durability.manager import DurabilityConfig
from repro.engine.database import Database

#: the default flush policy, stated so both sides of a comparison share it
DURABILITY = DurabilityConfig(sync="batch", batch_size=32)
#: ``Database.open`` repetitions of the durable workload's final directory
REOPEN_REPS = 3
REOPEN_QUERIES = 50
FINAL_CHECK_QUERIES = 20
#: queries each discarded warm-up database answers before anything is measured
WARMUP_QUERIES = 20

Op = Tuple  # ("q", bounds) | ("b", [bounds]) | ("s",) | a DmlOp


@dataclass(frozen=True)
class OpPlan:
    """The main section of one run, generated from the seed alone."""

    ops: List[Op]
    #: latency samples count from this op on (earlier ops warm the structure in)
    steady_start: int
    inserts: int


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    options: Mapping[str, object]
    int_bounds: bool
    durable: bool
    #: interleaving rounds: the main section runs in this many chunks, each
    #: preceded by one temporary database
    rounds: int
    #: every n-th temporary database answers its whole cold stretch, the
    #: others only its first query
    cold_every: int
    cold_queries: int
    #: query ranges the main section consumes, at scale 1
    stream_queries: int
    plan: Callable[[Sequence[Bounds], DmlPlanner], OpPlan]


# -- op plans -----------------------------------------------------------------------


def _plan_explore(stream: Sequence[Bounds], dml: DmlPlanner) -> OpPlan:
    return OpPlan([("q", bounds) for bounds in stream],
                  steady_start=len(stream) // 3, inserts=0)


def _plan_mixed(dml_share: float, snapshot_at: Optional[float] = None):
    def plan(stream: Sequence[Bounds], dml: DmlPlanner) -> OpPlan:
        # the stream supplies the queries; DML is interleaved until it runs out
        rng = dml.rng
        ops: List[Op] = []
        queries = iter(stream)
        total = int(len(stream) / (1.0 - dml_share))
        snapshot_index = int(total * snapshot_at) if snapshot_at else -1
        for index in range(total):
            if index == snapshot_index:
                ops.append(("s",))
            if rng.random() < dml_share:
                ops.append(dml.next_op())
                continue
            bounds = next(queries, None)
            if bounds is None:
                break
            ops.append(("q", bounds))
        return OpPlan(ops, steady_start=len(ops) // 10, inserts=dml.inserts)
    return plan


#: single queries after each batch: batch_partitioned's steady query sample
SINGLES_PER_BATCH = 4


def _plan_batches(stream: Sequence[Bounds], dml: DmlPlanner) -> OpPlan:
    ops: List[Op] = []
    step = BATCH_SIZE + SINGLES_PER_BATCH
    for start in range(0, len(stream) - step + 1, step):
        ops.append(("b", list(stream[start:start + BATCH_SIZE])))
        ops += [("q", bounds) for bounds in stream[start + BATCH_SIZE:start + step]]
    return OpPlan(ops, steady_start=len(ops) // 10, inserts=0)


#: why each workload exists is recorded once, in BENCHMARK.json and the README
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="explore_crack",
        mode="cracking", options={}, int_bounds=False, durable=False,
        rounds=16, cold_every=2, cold_queries=200, stream_queries=12_000,
        plan=_plan_explore,
    ),
    Workload(
        name="explore_merge",
        mode="adaptive-merging", options={}, int_bounds=False, durable=False,
        rounds=12, cold_every=4, cold_queries=100, stream_queries=600,
        plan=_plan_explore,
    ),
    Workload(
        name="mixed_update",
        mode="updatable-cracking", options={}, int_bounds=True, durable=False,
        rounds=16, cold_every=2, cold_queries=200, stream_queries=11_600,
        plan=_plan_mixed(dml_share=0.20),
    ),
    Workload(
        name="durable_dml",
        mode="updatable-cracking", options={}, int_bounds=True, durable=True,
        rounds=16, cold_every=2, cold_queries=200, stream_queries=1_600,
        plan=_plan_mixed(dml_share=0.80, snapshot_at=0.95),
    ),
    Workload(
        name="batch_partitioned",
        mode="partitioned-cracking",
        options={"partitions": 8, "parallel": True, "max_workers": MAX_WORKERS},
        int_bounds=False, durable=False,
        rounds=16, cold_every=4, cold_queries=100,
        stream_queries=150 * (BATCH_SIZE + SINGLES_PER_BATCH),
        plan=_plan_batches,
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def new_database(dataset: Dataset, mode: str, options: Mapping[str, object],
                 data_dir: Optional[Path] = None,
                 durability: Optional[DurabilityConfig] = None) -> Database:
    """Table ``t`` of ``dataset`` with ``mode`` indexing on its key column."""
    database = Database(
        "e21", data_dir=data_dir,
        durability=durability if data_dir is not None else None,
    )
    database.create_table(TABLE, dataset.columns())
    database.set_indexing(TABLE, KEY, mode, **options)
    return database


# -- measurement records ----------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    value: float
    unit: str
    samples: int

    def as_json(self) -> Dict[str, object]:
        return {"value": self.value, "unit": self.unit, "samples": self.samples}


@dataclass
class Report:
    """Everything one run measured, and its failure accounting."""

    workload: str
    metrics: Dict[str, Measurement] = field(default_factory=dict)
    #: reported but not part of BENCHMARK.json (see README, "left out")
    extras: Dict[str, Measurement] = field(default_factory=dict)
    #: logical facts that must not depend on the clock (exact per seed)
    facts: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    _complaints: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self._complaints < 5:
            self._complaints += 1
            print(f"e21: FAILED {self.workload}: {what}", file=sys.stderr)

    def check_answer(self, oracle: ShadowTable, bounds: Bounds, row_count: int,
                     pay_sum: Optional[float]) -> None:
        """Count one answered query and compare it with the model."""
        self.attempted += 1
        if not oracle.matches(bounds[0], bounds[1], row_count, pay_sum):
            self.fail(f"wrong answer for key in [{bounds[0]}, {bounds[1]})")

    def as_json(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "metrics": {k: m.as_json() for k, m in self.metrics.items()},
            "extras": {k: m.as_json() for k, m in self.extras.items()},
            "facts": self.facts,
            "counts": self.counts,
            "attempted": self.attempted,
            "failed": self.failed,
        }


# -- the runner ---------------------------------------------------------------------------

#: what :meth:`_Run.timed` returns in place of a result when the call raised
RAISED = object()


class Timing(NamedTuple):
    """One client call's duration in seconds."""

    #: at the reference host level (see ``e21_hostlevel``): what is reported
    adjusted: float
    #: as the clock measured it
    raw: float

    @staticmethod
    def total(timings: Sequence["Timing"]) -> "Timing":
        return Timing(sum(t.adjusted for t in timings), sum(t.raw for t in timings))


@dataclass
class _Latencies:
    """Latency samples gathered across the interleaved run."""

    by_kind: Dict[str, List[Timing]] = field(
        default_factory=lambda: {kind: [] for kind in "qbidus"}
    )
    setups: List[Timing] = field(default_factory=list)
    reopens: List[Timing] = field(default_factory=list)
    first_queries: List[Timing] = field(default_factory=list)
    adapt_totals: List[Timing] = field(default_factory=list)
    #: every client call of the main section, and the operations they completed
    main: List[Timing] = field(default_factory=list)
    main_ops: int = 0


class _Run:
    """State of one workload run: the oracle, the tallies, the clock sums."""

    def __init__(self, workload: Workload, dataset: Dataset, scratch: Path,
                 spare_rows: int) -> None:
        self.workload = workload
        self.dataset = dataset
        self.scratch = scratch
        self.oracle = ShadowTable(dataset, spare_rows=spare_rows)
        #: the table as generated: what every temporary database holds
        self.pristine = self.oracle.fork()
        self.report = Report(workload.name)
        self.latencies = _Latencies()
        self.host = HostProbe()
        self.timed_seconds = 0.0
        self._directories = 0
        self.counters = {"comparisons": 0, "tuples_moved": 0, "tuples_scanned": 0}

    def check(self, bounds: Bounds, result, oracle: Optional[ShadowTable] = None) -> None:
        """Count one answered query and compare it with the oracle (the main
        database's model unless another is given)."""
        if result is RAISED:
            self.report.attempted += 1  # already counted as failed
            return
        tally = self.counters
        tally["comparisons"] += result.counters.comparisons
        tally["tuples_moved"] += result.counters.tuples_moved
        tally["tuples_scanned"] += result.counters.tuples_scanned
        self.report.check_answer(oracle or self.oracle, bounds, result.row_count,
                                 result.aggregates.get(SUM_PAY))

    def timed(self, call, *args) -> Tuple[Timing, object]:
        """Run one client call; returns ``(timing, result or RAISED)``.

        The host's level is probed between calls, never inside one: before
        the call when the latest probe is stale, and again after a call long
        enough for the level to have moved (the two are then averaged).
        """
        host = self.host
        level = host.current()
        started = time.perf_counter()
        try:
            result = call(*args)
        except Exception:  # the benchmark must keep running and count it
            result = RAISED
            self.report.fail(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - started
        if elapsed > STALE_AFTER:
            level = (level + host.probe()) / 2.0
        self.timed_seconds += elapsed
        return Timing(elapsed / level, elapsed), result

    # -- databases ----------------------------------------------------------------

    def _open_database(self) -> Database:
        data_dir = None
        if self.workload.durable:
            self._directories += 1
            data_dir = self.scratch / f"db{self._directories}"
        return new_database(self.dataset, self.workload.mode, self.workload.options,
                            data_dir, DURABILITY)

    def open_database(self, sample: bool = True) -> Database:
        """What a user waits for before the first query: a ``setup_s`` sample.

        Collects first, so the new database reuses the memory of the last
        discarded one (see :meth:`discard`).
        """
        gc.collect()
        elapsed, database = self.timed(self._open_database)
        if database is RAISED:
            raise SystemExit("e21: set-up failed; nothing to measure")
        if sample:
            self.latencies.setups.append(elapsed)
        return database

    @staticmethod
    def discard(database: Database) -> None:
        """Close a database and delete its data directory, if it has one.

        A ``Database`` is cyclic garbage (planner and executor point back at
        it), so its arrays outlive the last reference until the collector
        runs.  Callers drop their reference before the next
        :meth:`open_database`: otherwise every fresh database is built in
        never-touched memory, whose page faults cost tens of microseconds
        each on a lazily backed VM and swamp the work being timed.
        """
        database.close()
        if database.durability is not None:
            shutil.rmtree(database.durability.data_dir, ignore_errors=True)


def _run_dml(run: _Run, session, op: DmlOp) -> Timing:
    """One planned DML op through the session; the engine must assign the
    row identifier the planner foresaw."""
    run.report.attempted += 1
    kind = op[0]
    if kind == "i":
        elapsed, rowid = run.timed(session.insert_row, TABLE, {KEY: op[1], PAY: op[2]})
    elif kind == "d":
        elapsed, rowid = run.timed(session.delete_row, TABLE, op[1])
    else:
        elapsed, rowid = run.timed(session.update_row, TABLE, op[1], {KEY: op[2]})
    expected = None if kind == "d" else op[3]
    if rowid is not RAISED and rowid != expected:
        run.report.fail(f"{kind} landed on rowid {rowid}, expected {expected}")
    return elapsed


def _cold_start(run: _Run, stretch: Sequence[Bounds], sample: bool = True):
    """A fresh database answering ``stretch``; returns it and its session.

    A sampled start gives one ``first_query_ms`` sample and, when the stretch
    is longer than that first query, one ``adapt_total_s`` sample.
    """
    database = run.open_database(sample)
    session = database.session(max_workers=MAX_WORKERS)
    latencies = []
    for bounds in stretch:
        elapsed, result = run.timed(session.execute, make_query(bounds))
        latencies.append(elapsed)
        run.check(bounds, result, run.pristine)
    if sample:
        run.latencies.first_queries.append(latencies[0])
        if len(latencies) > 1:
            run.latencies.adapt_totals.append(Timing.total(latencies))
    return database, session


def _warm_up(run: _Run, stretch: Sequence[Bounds]) -> None:
    """Two discarded starts, alive together, page in code paths and leave the
    allocator holding room for the two databases that coexist from here on
    (the main one and one temporary one), so no measured start is the one
    that has to fault fresh memory in."""
    pair = [_cold_start(run, stretch, sample=False) for _ in range(2)]
    for database, session in pair:
        session.close()
        run.discard(database)


def _run_ops(run: _Run, ops: Sequence[Op], first_index: int, steady_start: int,
             database: Database, session) -> None:
    """One timed client call per op of the main database's plan.

    ``first_index`` is the position of ``ops[0]`` in the plan; latency
    samples count from position ``steady_start`` on.
    """
    latencies = run.latencies
    gc.collect()
    for index, op in enumerate(ops, start=first_index):
        kind = op[0]
        completed = 1
        if kind == "q":
            elapsed, result = run.timed(session.execute, make_query(op[1]))
            run.check(op[1], result)
        elif kind == "b":
            queries = [make_query(bounds) for bounds in op[1]]
            elapsed, results = run.timed(
                session.execute_many, queries, True, MAX_WORKERS
            )
            for position, bounds in enumerate(op[1]):
                run.check(bounds, RAISED if results is RAISED else results[position])
            completed = len(queries)
        elif kind == "s":
            elapsed, _ = run.timed(database.snapshot)
            completed = 0
        else:
            elapsed = _run_dml(run, session, op)
            run.oracle.apply(op)
        if index >= steady_start or kind == "s":
            latencies.by_kind[kind].append(elapsed)
        latencies.main.append(elapsed)
        latencies.main_ops += completed


def _check_state(run: _Run, database: Database, oracle: ShadowTable) -> None:
    """Full visible-state comparison of the base table with a model."""
    run.report.attempted += 1
    table = database.table(TABLE)
    positions = database.visible_positions(
        TABLE, np.arange(table.row_count, dtype=np.int64)
    )
    same = (
        table.row_count == oracle.rows
        and np.array_equal(positions, oracle.visible_rowids())
        and np.array_equal(table.column(KEY).values, oracle.keys[:oracle.rows])
        and np.array_equal(table.column(PAY).values, oracle.pay[:oracle.rows])
    )
    if not same:
        run.report.fail("visible state differs from the model")


def _check_queries(run: _Run, session, stream: Sequence[Bounds],
                   oracle: ShadowTable) -> List[Timing]:
    """Queries that check the index's view of a final state; their
    latencies feed no end-to-end metric (the first one is reported)."""
    latencies = []
    for bounds in stream:
        elapsed, result = run.timed(session.execute, make_query(bounds))
        latencies.append(elapsed)
        run.check(bounds, result, oracle)
    return latencies


def _persist_copy(run: _Run) -> Path:
    """A snapshot-only durable copy of the generated table: what the
    in-memory workloads reopen, since they have no directory of their own."""
    data_dir = run.scratch / "copy"
    copy = new_database(run.dataset, run.workload.mode, run.workload.options,
                        data_dir, DURABILITY)
    copy.snapshot()
    copy.close()
    return data_dir


def _reopen(run: _Run, data_dir: Path) -> Database:
    """One ``recovery_s`` sample: ``Database.open`` of ``data_dir``."""
    gc.collect()
    elapsed, reopened = run.timed(Database.open, data_dir, None, DURABILITY)
    if reopened is RAISED:
        raise SystemExit("e21: reopening failed; nothing to measure")
    run.latencies.reopens.append(elapsed)
    return reopened


def _check_reopened(run: _Run, data_dir: Path, oracle: ShadowTable,
                    stream: Sequence[Bounds]) -> None:
    """Reopen once more and require every acknowledged operation visible."""
    reopened = _reopen(run, data_dir)
    run.report.facts["replayed_ops"] = reopened.recovery_report.replayed_total
    _check_state(run, reopened, oracle)
    with reopened.session(max_workers=MAX_WORKERS) as session:
        after = _check_queries(run, session, stream, oracle)
    run.report.extras["reopen_first_query_ms"] = Measurement(
        after[0].adjusted * 1e3, "ms", 1
    )
    run.discard(reopened)


def _directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _collect_facts(run: _Run, database: Database) -> None:
    """The run's exact counts, taken when the main section has ended."""
    facts = run.report.facts
    facts.update(run.counters)
    path = database.access_path(TABLE, KEY)
    for holder, attribute, fact in (
        ("cracked", "piece_count", "pieces_final"),
        ("index", "run_count", "runs_final"),
    ):
        structure = getattr(path, holder, None)
        if hasattr(structure, attribute):
            facts[fact] = int(getattr(structure, attribute))
    facts["rows_final"] = database.table(TABLE).row_count
    facts["visible_rows_final"] = database.visible_row_count(TABLE)
    manager = database.durability
    if manager is not None:
        stats = manager.stats()
        facts["wal_records"] = stats["appended_records"]
        facts["wal_fsync_calls"] = stats["fsync_calls"]
        facts["wal_rotations"] = stats["rotations"]
        facts["snapshots_written"] = stats["snapshots_written"]
        facts["wal_bytes_final"] = _directory_bytes(manager.data_dir / "wal")
        facts["snapshot_bytes_final"] = _directory_bytes(manager.data_dir / "snapshots")


def _latency_metrics(run: _Run) -> None:
    """The timing metrics: declared ones from the adjusted timings, and the
    same definitions over the raw timings as ``raw.<name>`` beside them."""
    latencies = run.latencies
    report = run.report
    main_ops = latencies.main_ops
    main_time = Timing.total(latencies.main)

    def emit(name: str, samples: Sequence[Timing], unit: str, q: float = 50,
             declared: bool = True, adjust: bool = True) -> None:
        factor = {"s": 1.0, "ms": 1e3}[unit]
        values = {
            label: Measurement(
                percentile([timing[pick] * factor for timing in samples], q),
                unit, len(samples),
            )
            for pick, label in enumerate(("adjusted", "raw"))
        }
        reported, other = ("adjusted", "raw") if adjust else ("raw", "adjusted")
        (report.metrics if declared else report.extras)[name] = values[reported]
        report.extras[f"{other}.{name}"] = values[other]

    # set-up is a 16 MB copy the host's level does not move (raw spread 2-4 %
    # over ten seeds, 5-18 % once divided by the level): reported as measured
    emit("setup_s", latencies.setups, "s", adjust=False)
    emit("recovery_s", latencies.reopens, "s")
    emit("first_query_ms", latencies.first_queries, "ms")
    emit("adapt_total_s", latencies.adapt_totals, "s")
    emit("query_p50_ms", latencies.by_kind["q"], "ms")
    emit("query_p95_ms", latencies.by_kind["q"], "ms", 95)
    report.metrics["throughput_ops_s"] = Measurement(
        main_ops / main_time.adjusted, "ops/s", main_ops
    )
    report.extras["raw.throughput_ops_s"] = Measurement(
        main_ops / main_time.raw, "ops/s", main_ops
    )

    # printed, not declared in BENCHMARK.json, which has no metric for some
    # workloads only: DML latencies exist only where the mix has DML, batches
    # on one workload, p99 only where ten samples lie beyond it
    by_kind = dict(latencies.by_kind)
    by_kind["w"] = by_kind["i"] + by_kind["d"] + by_kind["u"]
    for kind, name in DML_NAMES.items():
        if by_kind[kind]:
            emit(f"{name}_p50_ms", by_kind[kind], "ms", declared=False)
    for name, kind, q in (("query", "q", 99), ("write", "w", 95), ("write", "w", 99)):
        if supported(len(by_kind[kind]), q):
            emit(f"{name}_p{q}_ms", by_kind[kind], "ms", q, declared=False)
    if by_kind["b"]:
        emit("batch_p50_ms", by_kind["b"], "ms", declared=False)
        emit("batch_p95_ms", by_kind["b"], "ms", 95, declared=False)
    if by_kind["s"]:
        emit("snapshot_ms", by_kind["s"], "ms", declared=False)


def run_workload(workload: Workload, dataset: Dataset, seed: int, scale: float,
                 scratch: Path) -> Report:
    """Measure every end-to-end metric of ``workload`` once."""
    started = time.perf_counter()
    rounds = workload.rounds
    per_start = scaled(workload.cold_queries, scale, WARMUP_QUERIES)
    # one stretch for the main database, one for each round's temporary one
    cold_queries = (rounds + 1) * per_start
    main_queries = scaled(workload.stream_queries, scale, 2 * BATCH_SIZE)
    stream = query_stream(
        seed + 2,
        cold_queries + main_queries + FINAL_CHECK_QUERIES + REOPEN_QUERIES,
        workload.int_bounds,
    )
    main_end = cold_queries + main_queries
    planner = DmlPlanner(dataset.rows, np.random.default_rng(seed + 3))
    plan = workload.plan(stream[cold_queries:main_end], planner)
    run = _Run(workload, dataset, scratch, spare_rows=plan.inserts)
    copy_dir = None if workload.durable else _persist_copy(run)
    _warm_up(run, stream[:WARMUP_QUERIES])
    database, session = _cold_start(run, stream[:per_start])
    chunk = -(-len(plan.ops) // rounds)
    for index in range(rounds):
        stretch = stream[(index + 1) * per_start:(index + 2) * per_start]
        if index % workload.cold_every:
            stretch = stretch[:1]
        temporary, its_session = _cold_start(run, stretch)
        its_session.close()
        run.discard(temporary)
        del temporary, its_session
        if copy_dir is not None:
            _reopen(run, copy_dir).close()
        _run_ops(run, plan.ops[index * chunk:(index + 1) * chunk], index * chunk,
                 plan.steady_start, database, session)
    check_stream = stream[main_end:]
    _check_queries(run, session, check_stream[:FINAL_CHECK_QUERIES], run.oracle)
    _check_state(run, database, run.oracle)
    _collect_facts(run, database)
    session.close()
    database.close()
    live_dir = database.durability.data_dir if workload.durable else None
    del database, session
    if live_dir is not None:
        for _ in range(REOPEN_REPS):
            _reopen(run, live_dir).close()
    _check_reopened(
        run, live_dir or copy_dir, run.oracle if live_dir else run.pristine,
        check_stream[FINAL_CHECK_QUERIES:],
    )
    _latency_metrics(run)

    report = run.report
    report.metrics["peak_rss_mb"] = Measurement(peak_rss_mb(), "MB", 1)
    report.extras["timed_s"] = Measurement(run.timed_seconds, "s", 1)
    report.extras["probe_s"] = Measurement(run.host.seconds, "s", run.host.runs)
    report.extras["wall_s"] = Measurement(time.perf_counter() - started, "s", 1)
    by_kind = run.latencies.by_kind
    report.counts.update(
        ops=len(plan.ops),
        main_ops=run.latencies.main_ops,
        cold_starts=len(run.latencies.adapt_totals),
        cold_queries=per_start,
        steady_queries=len(by_kind["q"]),
        inserts=len(by_kind["i"]),
        deletes=len(by_kind["d"]),
        updates=len(by_kind["u"]),
        batches=len(by_kind["b"]),
        user_bytes=dataset.rows * ROW_BYTES,
    )
    return report
