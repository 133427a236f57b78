"""The tutorial's figure set: one declared table, one runner, one gate file.

Every experiment of the reproduction (e01–e15 and e20) is one row of
:data:`EXPERIMENTS`: the figure or claim it reproduces, the column it runs
on, the named workload pattern(s) it replays, the strategy variants it
compares (``label -> (registry name, options)``), the surface it drives (a
bare ``create_strategy`` object or a ``Database`` session) and the paper's
expected *shape* as named predicates over the measured metrics — first-query
overhead, convergence point, cumulative-cost crossover, robustness ratio,
tail-mean cost and structure counters.  Everything is logical cost: exact,
seeded and machine-independent.  Wall-clock belongs to
``benchmarks/e21_layers``.

Usage::

    python benchmarks/figures.py [--only eNN] [--scale S]   # run, print, judge
    python benchmarks/figures.py [--only eNN] --record      # rewrite FIGURES.json
    python benchmarks/figures.py [--only eNN] --check       # diff against it

``--scale`` multiplies every row's column size (query counts are part of a
figure's shape and stay).  ``--record`` / ``--check`` ignore it: they run
each row at its fixed *gate* size and write / diff ``FIGURES.json`` at the
repository root — per cell the exact counters, result rows and an answer
checksum, derived ratios to six significant digits.  Any drift is a real
change to a kernel or the cost model and is re-recorded in the same commit.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import partitioned  # noqa: E402
from repro.cost.counters import CostCounters  # noqa: E402
from repro.cost.model import DEFAULT_MAIN_MEMORY_MODEL as MODEL  # noqa: E402
from repro.cost.stats import WorkloadStatistics  # noqa: E402
from repro.durability.manager import DurabilityConfig  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.workloads import tpch_like  # noqa: E402
from repro.workloads.benchmark import (  # noqa: E402
    AdaptiveIndexingBenchmark,
    run_operations,
    stats_snapshot,
)
from repro.workloads.generators import (  # noqa: E402
    WORKLOAD_PATTERNS,
    WorkloadSpec,
    generate_column_data,
)
from repro.workloads.metrics import cost_crossover, robustness_ratio  # noqa: E402
from repro.workloads.updates import mixed_update_workload, write_workload  # noqa: E402

FIGURES_PATH = Path(__file__).resolve().parent.parent / "FIGURES.json"

#: key domain shared by column data and workloads
DOMAIN = 1_000_000.0


# -- the pieces a row is declared from -----------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named pattern plus its parameters; callables receive (rows, queries)."""

    pattern: str
    selectivity: float = 0.01
    seed: int = 0
    domain: Tuple[float, float] = (0.0, DOMAIN)
    arguments: Mapping[str, object] = field(default_factory=dict)

    def operations(self, rows: int, queries: int) -> list:
        spec = WorkloadSpec(*self.domain, queries, self.selectivity, self.seed)
        return PATTERNS[self.pattern](spec, **_resolved(self.arguments, rows, queries))


def W(pattern: str, selectivity: float = 0.01, seed: int = 0, domain=(0.0, DOMAIN),
      **arguments) -> Workload:
    return Workload(pattern, selectivity, seed, domain, arguments)


def _resolved(options: Mapping[str, object], rows: int, queries: int) -> dict:
    return {key: value(rows, queries) if callable(value) else value
            for key, value in options.items()}


def _shipping_priority(spec):
    return tpch_like.shipping_priority_queries(
        tpch_like.TPCHLikeConfig(), query_count=spec.query_count, seed=spec.seed
    )


PATTERNS: Dict[str, Callable] = {
    **WORKLOAD_PATTERNS,
    "mixed-updates": mixed_update_workload,
    "writes": write_workload,
    "shipping-priority": _shipping_priority,
}


def names(*strategies: str, **options) -> Dict[str, Tuple[str, dict]]:
    """Variants labelled by their registry name, all with the same options."""
    return {name: (name, dict(options)) for name in strategies}


@dataclass(frozen=True)
class Experiment:
    """One row of the table (see the module docstring)."""

    id: str
    title: str
    source: str
    rows: int
    queries: int
    #: (rows, queries) ``FIGURES.json`` is recorded at
    gate: Tuple[int, int]
    panels: Mapping[str, Workload]
    variants: Mapping[str, Tuple[str, dict]]
    #: the expected shape: name -> predicate over the :class:`Results`
    expect: Mapping[str, Callable[["Results"], bool]]
    #: ``(distribution, seed)`` of the column; ``"tpch"`` is the star schema
    data: Tuple[str, int] = ("uniform", 0)
    surface: str = "strategy"
    #: ``(tolerance, consecutive)`` of the convergence metric
    convergence: Tuple[float, int] = (1.25, 5)
    #: registry name -> structure counters read off the strategy after the run
    probes: Mapping[str, Callable[[object], Dict[str, float]]] = field(default_factory=dict)
    #: row-level metrics derived from several cells, recorded beside them
    derived: Mapping[str, Callable[["Results"], object]] = field(default_factory=dict)
    #: ``core.partitioned._POOL_MIN_WORK`` while the row runs: a partitioned
    #: column decides its fan-out from piece size, and at these sizes no piece
    #: is big enough, so the rows that compare a ``parallel`` variant with the
    #: sequential one set 0 — every sub-selection then goes to the pool, or
    #: the cells would be the same run
    pool_min_work: int = partitioned._POOL_MIN_WORK


# -- measuring ---------------------------------------------------------------------------


@dataclass
class Cell:
    """One variant over one panel: what the predicates read and the gate records."""

    statistics: WorkloadStatistics
    first_query_overhead: Optional[float] = None
    convergence_query: Optional[int] = None
    aux_bytes: int = 0
    probes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.costs: List[float] = self.statistics.per_query_cost(MODEL)
        self.cumulative: List[float] = self.statistics.cumulative_cost(MODEL)
        self.counters: CostCounters = self.statistics.total_counters()
        self.result_rows = sum(q.result_count for q in self.statistics)
        self.answers_crc = self.statistics.answers_crc

    @property
    def total(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0

    @property
    def tail(self) -> float:
        """Mean cost of the last tenth of the queries (the steady state)."""
        return mean(self.costs[-max(1, len(self.costs) // 10):])

    @property
    def worst(self) -> float:
        return max(self.costs)

    def __getattr__(self, name: str):
        try:
            return self.__dict__["probes"][name]
        except KeyError:
            raise AttributeError(name) from None

    def record(self) -> dict:
        totals = self.counters
        return {
            "comparisons": totals.comparisons,
            "tuples_moved": totals.tuples_moved,
            "tuples_scanned": totals.tuples_scanned,
            "random_accesses": totals.random_accesses,
            "result_rows": self.result_rows,
            "answers_crc": self.answers_crc,
            "first_query_overhead": rounded(self.first_query_overhead),
            "convergence_query": self.convergence_query,
            "total_cost": rounded(self.total),
            "tail_cost": rounded(self.tail),
            "robustness": rounded(robustness_ratio(self.costs)),
            "aux_bytes": self.aux_bytes,
            **{name: rounded(value) for name, value in self.probes.items()},
        }


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values))


def rounded(value):
    """Six significant digits for a float; anything else unchanged."""
    return float(f"{value:.6g}") if isinstance(value, float) else value


def near(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


class Results:
    """The cells of one experiment run; ``results(label, panel)`` is a cell."""

    def __init__(self, experiment: Experiment, rows: int, queries: int) -> None:
        self.experiment = experiment
        self.rows, self.queries = rows, queries
        #: logical cost of one full scan of the column
        self.scan_cost = MODEL.cost_of(tuples_scanned=rows, comparisons=2 * rows)
        self.cells: Dict[str, Dict[str, Cell]] = {}
        self.derived: Dict[str, object] = {}

    def __call__(self, label: str, panel: Optional[str] = None) -> Cell:
        return self.cells[panel or next(iter(self.cells))][label]

    def across(self, label: str) -> List[Cell]:
        """The cell of ``label`` in every panel."""
        return [cells[label] for cells in self.cells.values()]

    def failed(self) -> List[str]:
        """Names of the expectations that do not hold."""
        return [name for name, holds in self.experiment.expect.items()
                if not holds(self)]

    def record(self) -> dict:
        return {
            "rows": self.rows,
            "queries": self.queries,
            "derived": {name: rounded(value) for name, value in self.derived.items()},
            "cells": {panel: {label: cell.record() for label, cell in cells.items()}
                      for panel, cells in self.cells.items()},
        }


def _column(experiment: Experiment, rows: int) -> np.ndarray:
    distribution, seed = experiment.data
    return generate_column_data(rows, 0, DOMAIN, distribution=distribution, seed=seed)


def _strategy_cell(experiment, harness, label, name, options):
    run = harness.run_strategy(name, label, **options)
    probe = experiment.probes.get(name)
    return Cell(
        run.statistics, run.initialization_overhead, run.convergence_query,
        run.final_nbytes, probe(run.path) if probe else {},
    )


def _session_cell(experiment, rows, operations, workload, label, name, options, scratch):
    """The same stream through a ``Database`` session.  The option ``sync`` is
    the database's, not the strategy's: it puts the run on a data directory
    journaled under that fsync policy, which is then reopened — the cell
    records what the journal took and what recovery replayed."""
    sync = options.pop("sync", None)
    data_dir = Path(scratch) / label
    if experiment.data[0] == "tpch":
        table, column = "lineorder", "orderdate"
        database = tpch_like.build_database(
            tpch_like.TPCHLikeConfig(fact_rows=rows, seed=experiment.data[1])
        )
    else:
        table, column = "data", "key"
        durable = {} if sync is None else {
            "data_dir": data_dir, "durability": DurabilityConfig(sync=sync)
        }
        database = Database(experiment.id, **durable)
        database.create_table(table, {column: _column(experiment, rows)})
    if name != "scan":
        database.set_indexing(table, column, name, **options)
    with database.session(name=label) as session:
        statistics = run_operations(
            session, operations, label, table=table, column=column, rows=rows,
            victim_seed=workload.seed,
        )
    path = database.access_path(table, column)
    cell = Cell(statistics, aux_bytes=path.nbytes if path is not None else 0)
    if sync is not None:
        journal = database.durability.stats()
        cell.probes.update(journal_records=journal["appended_records"],
                           fsync_calls=journal["fsync_calls"])
    database.close()
    if sync is not None:
        recovered = Database.open(data_dir)
        report = recovered.recovery_report
        cell.probes.update(wal_records=report.wal_records,
                           replayed_operations=report.replayed_total)
        recovered.close()
    return cell


def run_experiment(experiment: Experiment, rows: int, queries: int) -> Results:
    """Every variant over every panel of one row, at the given size."""
    results = Results(experiment, rows, queries)
    values = None if experiment.surface == "session" else _column(experiment, rows)
    pool_bar = mock.patch.object(partitioned, "_POOL_MIN_WORK",
                                 experiment.pool_min_work)
    with tempfile.TemporaryDirectory(
            prefix=f"figures-{experiment.id}-") as scratch, pool_bar:
        for panel, workload in experiment.panels.items():
            operations = workload.operations(rows, queries)
            cells = results.cells[panel] = {}
            if experiment.surface == "strategy":
                harness = AdaptiveIndexingBenchmark(
                    values, operations, MODEL, *experiment.convergence,
                    victim_seed=workload.seed,
                )
            for label, (name, options) in experiment.variants.items():
                options = _resolved(options, rows, queries)
                if experiment.surface == "session":
                    cells[label] = _session_cell(
                        experiment, rows, operations, workload, label, name,
                        options, Path(scratch) / panel,
                    )
                else:
                    cells[label] = _strategy_cell(
                        experiment, harness, label, name, options
                    )
    for name, derive in experiment.derived.items():
        results.derived[name] = derive(results)
    return results


# -- probes and helpers the rows share -----------------------------------------------


def merges(strategy) -> Dict[str, float]:
    return stats_snapshot(strategy, "merges_performed")


def hot_cold_pieces(strategy) -> Dict[str, float]:
    """Cracker pieces inside / outside the bottom tenth of the key domain."""
    pieces = strategy.pieces()
    edge = DOMAIN / 10
    return {
        "hot_pieces": sum(1 for p in pieces if p.high is not None and p.high <= edge),
        "cold_pieces": sum(1 for p in pieces if p.low is not None and p.low >= edge),
    }


def index_like_from(cell: Cell, threshold: float, window: int = 10) -> int:
    """First query from which ``window`` queries average below ``threshold``
    (the number of queries when that never happens)."""
    costs = cell.costs
    for index in range(len(costs) - window):
        if mean(costs[index:index + window]) < threshold:
            return index
    return len(costs)


def same_answers(results: Results, reference: str) -> bool:
    """Every variant returned, query by query, the row sets of ``reference``."""
    return all(
        (cell.answers_crc, cell.result_rows) == (cells[reference].answers_crc,
                                                 cells[reference].result_rows)
        for cells in results.cells.values() for cell in cells.values()
    )


def same_work(a: Cell, b: Cell) -> bool:
    """Identical logical work, query by query."""
    return a.costs == b.costs and a.counters == b.counters


HYBRIDS = ("hybrid-crack-crack", "hybrid-crack-sort", "hybrid-sort-sort")
ADAPTIVE = ("cracking", "adaptive-merging", "hybrid-crack-sort")
SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1, 0.5)
UPDATE_RATIOS = (0.0, 0.01, 0.1, 1.0)
BUDGETS = {"unlimited": None, "100%": 1.0, "50%": 0.5, "25%": 0.25, "5%": 0.05}
#: e14 shifts its focus every this many queries
SHIFT = 150
#: e20: journal records of the set-up (create_table, set_indexing), writes in
#: the stream, and the group-commit size of ``sync="batch"``
SETUP_RECORDS, WRITES, GROUP_COMMIT = 2, 300, 32


def _phase(cell: Cell, start: int, stop: int) -> float:
    return mean(cell.costs[start:stop])


def _budget_bytes(fraction):
    """A share of the fully materialised cracker structures (values + rowids
    + fragment rowids, 8 bytes each)."""
    return None if fraction is None else (lambda rows, _: int(24 * rows * fraction))


# -- the table ---------------------------------------------------------------------------

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        id="e01",
        title="per-query response: cracking vs scan vs sort-first vs full index",
        source="Database cracking, CIDR 2007 — the per-query response-time figure "
               "the tutorial presents first",
        rows=100_000, queries=500, gate=(5_000, 80),
        panels={"random": W("random", 0.01, seed=1)},
        variants=names("scan", "sort-first", "full-index", "cracking", "adaptive-merging"),
        expect={
            "scan_is_flat_and_never_converges": lambda r: (
                near(r("scan").first_query_overhead, 1.0, 0.3)
                and r("scan").convergence_query is None),
            "sort_first_pays_everything_on_query_one": lambda r: (
                r("sort-first").first_query_overhead > r("cracking").first_query_overhead
                and r("sort-first").convergence_query in (0, 1)),
            "cracking_starts_near_a_scan": lambda r: (
                1.0 < r("cracking").first_query_overhead
                < r("sort-first").first_query_overhead),
            "cracking_tail_far_below_a_scan": lambda r: (
                r("cracking").tail < r.scan_cost / 10),
            "full_index_is_cheapest_per_query": lambda r: (
                r("full-index").tail <= r("cracking").tail),
        },
    ),
    Experiment(
        id="e02",
        title="cumulative cost: when does adaptive indexing pay off",
        source="Database cracking, CIDR 2007 — the cumulative-cost figure",
        rows=100_000, queries=500, gate=(10_000, 100),
        panels={"random": W("random", 0.01, seed=1)},
        variants=names("scan", "sort-first", "cracking"),
        derived={
            "crossover_vs_scan": lambda r: cost_crossover(
                r("cracking").cumulative, r("scan").cumulative),
            "crossover_vs_sort_first": lambda r: cost_crossover(
                r("cracking").cumulative, r("sort-first").cumulative),
        },
        expect={
            "beats_scanning_within_a_handful_of_queries": lambda r: (
                r.derived["crossover_vs_scan"] is not None
                and r.derived["crossover_vs_scan"] <= 5),
            "below_sort_first_from_the_first_query": lambda r: (
                r.derived["crossover_vs_sort_first"] == 0),
            "cheaper_than_scanning_overall": lambda r: (
                r("cracking").total < r("scan").total),
        },
    ),
    Experiment(
        id="e03",
        title="benchmark metric 1: initialization cost of the first query",
        source="Benchmarking adaptive indexing, TPCTC 2010 — metric 1",
        rows=100_000, queries=50, gate=(10_000, 50),
        panels={"random": W("random", 0.01, seed=1)},
        variants=names("scan", "cracking", "stochastic-cracking", "hybrid-crack-crack",
                       "hybrid-crack-sort", "hybrid-sort-sort", "adaptive-merging",
                       "sort-first"),
        expect={
            "a_scan_has_no_overhead": lambda r: (
                near(r("scan").first_query_overhead, 1.0, 0.3)),
            "cracking_is_a_small_factor_above_a_scan": lambda r: (
                1.0 < r("cracking").first_query_overhead < 5.0),
            "lazy_initial_hybrids_stay_below_merging": lambda r: all(
                r(name).first_query_overhead
                < r("adaptive-merging").first_query_overhead
                for name in ("hybrid-crack-crack", "hybrid-crack-sort")),
            "active_reorganisation_costs_more_up_front": lambda r: (
                r("cracking").first_query_overhead
                < r("adaptive-merging").first_query_overhead
                < r("sort-first").first_query_overhead),
            "sort_sort_starts_like_merging": lambda r: near(
                r("hybrid-sort-sort").first_query_overhead,
                r("adaptive-merging").first_query_overhead, 0.25),
        },
    ),
    Experiment(
        id="e04",
        title="benchmark metric 2: convergence to full-index cost",
        source="Benchmarking adaptive indexing, TPCTC 2010 — metric 2; the "
               "convergence comparison of PVLDB 2011",
        rows=100_000, queries=500, gate=(10_000, 300),
        # focused on the first tenth of the domain so the queried range can be
        # fully optimised within the run; 2x-of-full-index tolerance
        panels={"focused": W("random", 0.05, seed=11, domain=(0.0, 100_000.0))},
        convergence=(2.0, 5),
        variants=names("scan", "sort-first", "cracking", "adaptive-merging",
                       "hybrid-sort-sort"),
        expect={
            "a_scan_never_converges": lambda r: r("scan").convergence_query is None,
            "sort_first_converges_immediately": lambda r: (
                r("sort-first").convergence_query in (0, 1)),
            "the_active_strategies_converge_within_the_run": lambda r: (
                r("adaptive-merging").convergence_query is not None
                and r("hybrid-sort-sort").convergence_query is not None),
            "merging_converges_no_later_than_cracking": lambda r: (
                r("cracking").convergence_query is None
                or r("adaptive-merging").convergence_query
                <= r("cracking").convergence_query),
            "cracking_tail_far_below_a_scan": lambda r: (
                r("cracking").tail < r.scan_cost / 10),
        },
    ),
    Experiment(
        id="e05",
        title="selectivity sweep: benefit from point-like ranges to half the domain",
        source="Database cracking, CIDR 2007 — the selectivity sweep",
        rows=100_000, queries=200, gate=(10_000, 200),
        panels={f"s{s}": W("random", s, seed=5) for s in SELECTIVITIES},
        variants=names("scan", "cracking", "full-index"),
        derived={
            f"scan_over_cracking@s{s}": (
                lambda r, p=f"s{s}": r("scan", p).total / r("cracking", p).total)
            for s in SELECTIVITIES
        },
        expect={
            "cracking_beats_scanning_at_every_selectivity": lambda r: all(
                ratio > 1.5 for ratio in r.derived.values()),
            "the_advantage_is_largest_for_selective_queries": lambda r: (
                r.derived["scan_over_cracking@s0.0001"]
                > r.derived["scan_over_cracking@s0.5"]),
        },
    ),
    Experiment(
        id="e06",
        title="skewed workloads: only what is queried gets optimised",
        source="Robustness studies of PVLDB 2011; the tutorial's rule that every "
               "query is advice on how data should be stored",
        rows=100_000, queries=300, gate=(10_000, 300),
        panels={
            **{f"alpha{a}": W("skewed", 0.01, seed=6, alpha=float(a), hot_regions=16)
               for a in (0, 1, 2)},
            # every query inside the bottom tenth of the domain
            "hot": W("random", 5_000 / 95_000, seed=0, domain=(0.0, 95_000.0)),
        },
        variants=names("scan", "cracking", "adaptive-merging"),
        probes={"cracking": hot_cold_pieces},
        expect={
            "scanning_is_insensitive_to_skew": lambda r: near(
                r("scan", "alpha0").total, r("scan", "alpha2").total, 0.01),
            "merging_profits_from_skew": lambda r: (
                r("adaptive-merging", "alpha2").total
                < r("adaptive-merging", "alpha0").total
                and r("adaptive-merging", "alpha2").tail
                <= r("adaptive-merging", "alpha0").tail * 1.1),
            "skew_leaves_cracking_total_roughly_unchanged": lambda r: near(
                r("cracking", "alpha2").total, r("cracking", "alpha0").total, 0.2),
            "cracking_tail_far_below_a_scan_at_every_skew": lambda r: all(
                r("cracking", f"alpha{a}").tail < r.scan_cost / 10 for a in (0, 1, 2)),
            "pieces_concentrate_where_the_queries_are": lambda r: (
                r("cracking", "hot").hot_pieces
                > 10 * max(r("cracking", "hot").cold_pieces, 1)),
        },
    ),
    Experiment(
        id="e07",
        title="adversarial access patterns: sequential and periodic sweeps",
        source="The tutorial's robustness discussion; the patterns of TPCTC 2010 "
               "and stochastic cracking, PVLDB 2012",
        rows=100_000, queries=300, gate=(10_000, 300),
        panels={
            "random": W("random", 0.005, seed=7),
            "sequential": W("sequential", 0.005, seed=7),
            "periodic": W("periodic", 0.005, seed=7, period=100),
        },
        variants=names("scan", "cracking", "stochastic-cracking", "adaptive-merging"),
        expect={
            "both_crackings_comparable_on_random": lambda r: (
                r("stochastic-cracking", "random").total
                < 2.0 * r("cracking", "random").total),
            "a_sequential_sweep_hurts_plain_cracking": lambda r: (
                r("cracking", "sequential").total > 1.5 * r("cracking", "random").total),
            "stochastic_cracking_stays_robust": lambda r: (
                r("stochastic-cracking", "sequential").total
                < r("cracking", "sequential").total),
            "merging_is_pattern_insensitive": lambda r: (
                r("adaptive-merging", "sequential").total
                < 2.0 * r("adaptive-merging", "random").total),
        },
    ),
    Experiment(
        id="e08",
        title="cracking under updates: merge on demand keeps adaptivity",
        source="Updating a cracked database, SIGMOD 2007",
        rows=50_000, queries=300, gate=(5_000, 60),
        panels={f"u{u}": W("mixed-updates", 0.01, seed=8, updates_per_query=u)
                for u in UPDATE_RATIOS},
        variants={policy: ("updatable-cracking", {"policy": policy})
                  for policy in ("ripple", "gradual")},
        probes={"updatable-cracking": merges},
        expect={
            "queries_stay_adaptive_at_every_update_ratio": lambda r: all(
                cell.tail < r.scan_cost / 5 for cell in r.across("ripple")),
            "maintenance_grows_moderately_no_rebuilds": lambda r: (
                r("ripple", "u1.0").total < 5.0 * r("ripple", "u0.0").total
                and r("ripple", "u0.01").total < 1.5 * r("ripple", "u0.0").total),
            "gradual_policy_worst_query_no_worse": lambda r: (
                max(r("gradual", "u1.0").costs[10:])
                <= max(r("ripple", "u1.0").costs[10:]) * 1.5),
        },
    ),
    Experiment(
        id="e09",
        title="sideways cracking: self-organising tuple reconstruction",
        source="Self-organizing tuple reconstruction in column stores, SIGMOD 2009",
        rows=60_000, queries=150, gate=(6_000, 150),
        data=("tpch", 9), surface="session",
        panels={"select-project": W("shipping-priority", seed=10)},
        variants={"scan": ("scan", {}),
                  "cracking+late-reconstruction": ("cracking", {}),
                  "sideways-cracking": ("sideways-cracking", {})},
        expect={
            "all_modes_return_the_same_rows": lambda r: same_answers(r, "scan"),
            "sideways_eliminates_random_access": lambda r: (
                r("sideways-cracking").counters.random_accesses
                < r("cracking+late-reconstruction").counters.random_accesses / 10),
            "sideways_clearly_beats_scanning": lambda r: (
                r("sideways-cracking").total < r("scan").total / 2),
            "sideways_steady_state_beats_late_reconstruction": lambda r: (
                r("sideways-cracking").tail < r("cracking+late-reconstruction").tail),
        },
    ),
    Experiment(
        id="e10",
        title="adaptive merging vs cracking: activeness vs laziness",
        source="Self-selecting, self-tuning, incrementally optimized indexes, "
               "EDBT 2010; the comparison framing of PVLDB 2011",
        rows=100_000, queries=400, gate=(10_000, 400),
        panels={"random": W("random", 0.02, seed=10)},
        variants={**names("cracking"), **names("adaptive-merging", run_size=2_000)},
        probes={"adaptive-merging": lambda strategy: {
            "merged_fraction": strategy.merged_count / len(strategy)}},
        derived={
            # queries until cost stays at a few times the average result size
            f"index_like_from@{name}": (
                lambda r, name=name: index_like_from(r(name), 6.0 * 0.02 * r.rows))
            for name in ("cracking", "adaptive-merging")
        },
        expect={
            "merging_pays_more_on_the_first_query": lambda r: (
                r("adaptive-merging").costs[0] > r("cracking").costs[0]),
            "merging_reaches_index_like_cost_sooner": lambda r: (
                r.derived["index_like_from@adaptive-merging"]
                < r.derived["index_like_from@cracking"]),
            "most_of_the_column_ends_up_merged": lambda r: (
                r("adaptive-merging").merged_fraction > 0.9),
        },
    ),
    Experiment(
        id="e11",
        title="hybrids: trading initialization against convergence",
        source="Merging what's cracked, cracking what's merged, PVLDB 2011",
        rows=100_000, queries=400, gate=(10_000, 400),
        panels={"random": W("random", 0.01, seed=11)},
        variants=names("cracking", "adaptive-merging", *HYBRIDS, "sort-first"),
        expect={
            "crack_initial_hybrids_start_like_cracking": lambda r: all(
                r(name).first_query_overhead < 2.0 * r("cracking").first_query_overhead
                for name in ("hybrid-crack-crack", "hybrid-crack-sort")),
            "and_far_below_sorting_everything_first": lambda r: (
                r("hybrid-crack-sort").first_query_overhead
                < r("sort-first").first_query_overhead / 1.5),
            "sort_initial_hybrids_pay_more_up_front": lambda r: (
                r("hybrid-sort-sort").first_query_overhead
                > r("hybrid-crack-sort").first_query_overhead),
            "every_adaptive_tail_far_below_a_scan": lambda r: all(
                r(name).tail < r.scan_cost / 10
                for name in ("cracking", "adaptive-merging", *HYBRIDS)),
            "investing_more_order_pays_off_in_the_tail": lambda r: (
                r("hybrid-sort-sort").tail <= r("hybrid-crack-crack").tail * 1.25),
        },
    ),
    Experiment(
        id="e12",
        title="partial cracking: performance against a storage budget",
        source="Partial sideways cracking, SIGMOD 2009; the tutorial's "
               "storage-bounds discussion",
        rows=100_000, queries=300, gate=(10_000, 300),
        panels={"random": W("random", 0.01, seed=12)},
        variants={label: ("partial-cracking",
                          {"budget_bytes": _budget_bytes(fraction), "fragments": 16})
                  for label, fraction in BUDGETS.items()},
        probes={"partial-cracking": lambda strategy: {
            "evictions": strategy.evictions,
            "fallback_scans": strategy.fallback_scans}},
        expect={
            "cost_grows_as_the_budget_shrinks": lambda r: (
                r("100%").total <= r("25%").total * 1.1
                and r("25%").total <= r("5%").total * 1.1),
            "only_tight_budgets_evict": lambda r: (
                r("unlimited").evictions == 0 and r("25%").evictions > 0),
            "unlimited_is_far_below_scanning": lambda r: (
                r("unlimited").total < r.scan_cost * r.queries / 5),
            "the_tightest_budget_degrades_towards_scanning_not_off_a_cliff": lambda r: (
                r("5%").total <= r.scan_cost * r.queries * 1.25),
            "storage_stays_inside_the_budget": lambda r: all(
                r(label).aux_bytes <= int(24 * r.rows * fraction) + 1
                for label, fraction in BUDGETS.items() if fraction is not None),
        },
    ),
    Experiment(
        id="e13",
        title="offline, online, soft and adaptive indexing under a workload shift",
        source="The tutorial's positioning of adaptive indexing against what-if "
               "tuning, COLT-style online tuning and soft indexes",
        rows=100_000, queries=400, gate=(10_000, 400),
        panels={"shifting": W("piecewise", 0.01, seed=13, shift_every=100,
                              focus_fraction=0.1)},
        variants={
            "scan": ("scan", {}),
            "offline-index": ("full-index", {}),
            "online-tuning": ("online", {"build_threshold_factor": 1.0}),
            "soft-index": ("soft", {"recommendation_threshold": 10}),
            "cracking": ("cracking", {}),
        },
        # the offline index is built before the workload; its cost is no query's
        probes={"full-index": lambda strategy: {
            "build_cost": MODEL.cost(strategy.build_counters)}},
        expect={
            "cracking_never_penalises_a_single_query": lambda r: (
                r("cracking").worst < 4 * r.scan_cost),
            "online_and_soft_each_pay_a_full_build_in_one_query": lambda r: (
                r("online-tuning").worst > 4 * r.scan_cost
                and r("soft-index").worst > 4 * r.scan_cost
                and r("online-tuning").worst > 2 * r("cracking").worst),
            "online_tuning_waits_while_cracking_already_benefits": lambda r: (
                _phase(r("cracking"), 1, 8) < _phase(r("online-tuning"), 1, 8)),
            "every_index_beats_scanning_over_the_workload": lambda r: all(
                r(label).total < r("scan").total
                for label in ("cracking", "online-tuning", "soft-index", "offline-index")),
            "offline_wins_per_query_only_by_prepaying_its_build": lambda r: (
                r("offline-index").total < r("cracking").total
                and r("offline-index").build_cost > 3 * r.scan_cost),
        },
    ),
    Experiment(
        id="e14",
        title="workload shifts: adaptive indexing re-converges per focus",
        source="The tutorial's dynamic-workload motivation; the workload-shift "
               "experiments of the adaptive-indexing line",
        rows=100_000, queries=3 * SHIFT, gate=(10_000, 3 * SHIFT),
        panels={"shifting": W("piecewise", 0.02, seed=14, shift_every=SHIFT,
                              focus_fraction=0.08)},
        variants={**names("scan", *ADAPTIVE), **names("adaptive-merging", run_size=2_000)},
        derived={
            f"{phase}@{name}": (lambda r, name=name, window=window: _phase(r(name), *window))
            for name in ADAPTIVE
            for phase, window in (("phase1_tail", (SHIFT - 20, SHIFT)),
                                  ("shift_spike", (SHIFT, SHIFT + 5)),
                                  ("phase2_tail", (2 * SHIFT - 20, 2 * SHIFT)))
        },
        expect={
            "a_shift_costs_again": lambda r: all(
                r.derived[f"phase1_tail@{name}"] < r.derived[f"shift_spike@{name}"]
                for name in ADAPTIVE),
            "the_new_focus_gets_cheap_again": lambda r: all(
                r.derived[f"phase2_tail@{name}"] < r.derived[f"shift_spike@{name}"] / 2
                for name in ADAPTIVE),
            "far_below_scanning_across_shifts": lambda r: all(
                r(name).total < r("scan").total / 2 for name in ADAPTIVE),
        },
    ),
    Experiment(
        id="e15",
        title="partitioned cracking: shard count, and a fan-out the cost model never sees",
        source="Partitioned parallel cracking (this reproduction); gate cells "
               "partitioned-8 and partitioned-8-thread-N are the former "
               "BENCH_e15_scaling.json seq / thread-N",
        rows=100_000, queries=300, gate=(8_000, 60),
        data=("uniform", 15), pool_min_work=0,
        panels={"random": W("random", 0.02, seed=151)},
        variants={
            "cracking": ("cracking", {}),
            **{f"partitioned-{count}": ("partitioned-cracking",
                                        {"partitions": count, "parallel": False})
               for count in (1, 2, 4, 8)},
            **{f"partitioned-8-thread-{workers}": (
                "partitioned-cracking",
                {"partitions": 8, "parallel": True, "max_workers": workers})
               for workers in (1, 2, 4, 8)},
        },
        expect={
            "every_shard_count_returns_the_same_rows": lambda r: (
                same_answers(r, "cracking")),
            "partitioning_stays_in_crackings_ballpark": lambda r: all(
                r(f"partitioned-{count}").total < r.scan_cost * r.queries / 2
                and r(f"partitioned-{count}").total < r("cracking").total * 3
                for count in (1, 2, 4, 8)),
            "every_worker_count_does_the_sequential_logical_work": lambda r: all(
                same_work(r(f"partitioned-8-thread-{workers}"), r("partitioned-8"))
                for workers in (1, 2, 4, 8)),
        },
    ),
    Experiment(
        id="e20",
        title="durability: what the journal takes and what recovery replays",
        source="Write-ahead journal and recovery (this reproduction); gate cells "
               "are the former BENCH_e20_durability.json settings + recovery",
        rows=40_000, queries=30, gate=(4_000, 30),
        data=("uniform", 19), surface="session",
        panels={"writes": W("writes", 0.01, seed=20, writes=WRITES)},
        variants={"none": ("cracking", {}),
                  **{sync: ("cracking", {"sync": sync})
                     for sync in ("off", "batch", "always")}},
        expect={
            "every_write_is_journaled_exactly_once": lambda r: all(
                r(sync).journal_records == WRITES + SETUP_RECORDS
                for sync in ("off", "batch", "always")),
            "the_sync_policy_alone_decides_the_fsyncs": lambda r: (
                r("off").fsync_calls == 0
                and r("batch").fsync_calls == r("batch").journal_records // GROUP_COMMIT
                and r("always").fsync_calls == r("always").journal_records),
            "recovery_scans_and_replays_every_record": lambda r: all(
                r(sync).wal_records == r(sync).replayed_operations
                == r(sync).journal_records
                for sync in ("off", "batch", "always")),
            "durability_is_invisible_to_the_cost_model": lambda r: (
                same_answers(r, "none") and all(
                    same_work(r(sync), r("none")) for sync in ("off", "batch", "always"))),
        },
    ),
)

BY_ID = {experiment.id: experiment for experiment in EXPERIMENTS}


# -- command line ------------------------------------------------------------------------


def print_results(results: Results) -> None:
    experiment = results.experiment
    print(f"\n=== {experiment.id}: {experiment.title} "
          f"({results.rows:,} rows, {results.queries} queries) ===")
    print(f"    {experiment.source}")
    header = (f"{'panel':>16s} {'variant':>30s} {'first/scan':>10s} {'converged@':>10s} "
              f"{'total cost':>14s} {'tail cost':>12s} {'max/median':>10s} {'aux bytes':>11s}")
    print(header)
    for panel, cells in results.cells.items():
        for label, cell in cells.items():
            row = cell.record()
            print(
                f"{panel:>16s} {label:>30s} "
                f"{_shown(row['first_query_overhead']):>10s} "
                f"{_shown(row['convergence_query']):>10s} {cell.total:>14,.0f} "
                f"{cell.tail:>12,.0f} {_shown(row['robustness']):>10s} "
                f"{cell.aux_bytes:>11,d}"
                + "".join(f"  {name}={_shown(value)}" for name, value in cell.probes.items())
            )
    for name, value in results.derived.items():
        print(f"    {name} = {_shown(rounded(value))}")
    failed = results.failed()
    for name in experiment.expect:
        print(f"    [{'FAIL' if name in failed else 'ok'}] {name}")


def _shown(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="figures", description="run, record or check the tutorial's figure set"
    )
    parser.add_argument("--only", action="append", choices=sorted(BY_ID), metavar="eNN",
                        help="run this row only (repeatable; default: every row)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--scale", type=float, default=None, metavar="S",
                      help="multiply every row's column size by S (default 1.0)")
    mode.add_argument("--record", action="store_true",
                      help=f"run at the gate sizes and rewrite {FIGURES_PATH.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"run at the gate sizes and diff against {FIGURES_PATH.name}")
    args = parser.parse_args(argv)
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be positive")
    gate = args.record or args.check
    recorded = json.loads(FIGURES_PATH.read_text()) if FIGURES_PATH.exists() else {}
    if args.check and not recorded:
        print(f"figures: no {FIGURES_PATH.name} to check against", file=sys.stderr)
        return 2

    status = 0
    for experiment in EXPERIMENTS:
        if args.only and experiment.id not in args.only:
            continue
        rows, queries = experiment.gate if gate else (
            max(1, int(experiment.rows * (args.scale or 1.0))), experiment.queries)
        results = run_experiment(experiment, rows, queries)
        if not gate:
            print_results(results)
        for name in results.failed():
            status = 1
            print(f"figures: {experiment.id}: expectation {name} does not hold",
                  file=sys.stderr)
        if args.record:
            recorded[experiment.id] = results.record()
        elif args.check:
            for message in differences(recorded.get(experiment.id), results.record()):
                status = 1
                print(f"figures: {experiment.id}: {message}", file=sys.stderr)
    if args.record:
        # a row deleted from the table leaves no stale entry behind
        recorded = {key: row for key, row in recorded.items() if key in BY_ID}
        FIGURES_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"figures: {FIGURES_PATH.name} written")
    elif status == 0:
        print("figures: OK — every expectation holds"
              + (f", counters identical to {FIGURES_PATH.name}" if args.check else ""))
    return status


def differences(then, now, where: str = "") -> List[str]:
    """Every leaf at which the recorded row and a fresh run disagree."""
    if isinstance(then, dict) and isinstance(now, dict):
        return [message for key in sorted(set(then) | set(now))
                for message in differences(then.get(key), now.get(key),
                                           f"{where}/{key}" if where else key)]
    if then == now:
        return []
    return [f"{where or 'row'} drifted {then!r} -> {now!r} (counters are deterministic: "
            f"a real change is re-recorded with --record in the same commit)"]


if __name__ == "__main__":
    sys.exit(main())
