"""Tier-1 smoke of the e21 benchmark: tiny table, tiny counts, every name.

One child process runs all five workloads and one traced ladder at 5 000
rows; the tests check the contract between ``BENCHMARK.json`` and what the
runner emits: every declared metric exactly once per workload, finite, with
its declared unit; no failed operation; well-formed spans.  Timings are not
asserted.  The runs happen in a child so that nothing of the benchmark
(allocator policy, ``sys.path``, witnesses a CI job armed) meets the rest of
the test session.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from e21_hostlevel import STALE_AFTER, HostProbe
from e21_oracle import DmlPlanner
from e21_trace import Tracer

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ROWS = 5_000
SECONDS = 0.15
SEED = 9  # not the default, so the span file of a real run is left alone

CHILD = f"""
import json
import run

def smoke(workload, trace=False):
    return run.run_one(workload, {SEED}, {SECONDS}, trace, rows={ROWS})

end_to_end = [m["name"] for m in run.load_contract()["end_to_end"]]
reports = {{name: smoke(name) for name in {WORKLOADS!r}}}
print(json.dumps({{
    "reports": reports,
    "lines": {{name: run.result_line(r, end_to_end) for name, r in reports.items()}},
    "repeat": smoke("durable_dml"),
    "traced": smoke("mixed_update", trace=True),
}}))
"""


def run_child(arguments, **extra_env):
    """The benchmark in a child whose environment arms nothing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(extra_env)
    return subprocess.run([sys.executable, *arguments], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke():
    completed = run_child(["-c", CHILD])
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


def check_metrics(report, declared):
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        measured = report["metrics"][metric["name"]]
        assert NAME.match(metric["name"]), metric["name"]
        assert measured["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(measured["value"]), metric["name"]
        assert measured["samples"] >= 1, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_end_to_end_metric(smoke, workload):
    report = smoke["reports"][workload]
    check_metrics(report, CONTRACT["end_to_end"])
    for name, measured in report["metrics"].items():
        assert measured["value"] > 0, name  # the contract wants none at 0
    # every timing is reported adjusted and raw; set-up the other way round
    extras = report["extras"]
    assert extras["raw.query_p50_ms"]["value"] > 0 and "adjusted.setup_s" in extras
    assert extras["raw.throughput_ops_s"]["unit"] == "ops/s"
    line = json.loads(smoke["lines"][workload])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]


def test_traced_run_emits_every_per_layer_metric_and_sound_spans(smoke):
    report = smoke["traced"]
    check_metrics(report, CONTRACT["per_layer"])
    spans = Tracer.read_jsonl(HERE / "out" / f"spans-mixed_update-seed{SEED}.jsonl")
    assert len(spans) == report["counts"]["spans"] > 0
    assert spans.problems() == []
    # the step-by-step twin's spans nest under one root per operation
    assert "engine.planner.plan" in spans.names
    root = spans.parents[spans.names.index("engine.planner.plan")]
    assert spans.names[root] == "engine.session.stepwise"


def test_same_seed_same_exact_counts(smoke):
    first, second = smoke["reports"]["durable_dml"], smoke["repeat"]
    assert first["facts"] == second["facts"] and first["facts"]["wal_records"] > 0
    assert first["counts"] == second["counts"]


@pytest.mark.parametrize("variable", ["REPRO_LOCK_WITNESS", "REPRO_BENCH_SCALE"])
def test_refuses_witnesses_and_the_scale_knob(variable):
    completed = run_child(["run.py", "--workload", "explore_crack"], **{variable: "1"})
    assert completed.returncode != 0
    assert variable in completed.stderr and "correct" not in completed.stdout


def test_host_probe_replaces_a_stale_level():
    probe = HostProbe()
    level = probe.current()
    assert math.isfinite(level) and level > 0 and probe.runs == 1
    time.sleep(2 * STALE_AFTER)
    assert probe.current() > 0 and probe.runs == 2
    assert len(probe.parts()) == 4 and probe.seconds > 0


def test_planner_names_only_rows_that_exist():
    for seed in range(50):
        rows = 40
        planner = DmlPlanner(rows, np.random.default_rng(seed))
        victims = set()
        for op in planner.burst(40):
            if op[0] != "i":
                assert 0 <= op[1] < rows and op[1] not in victims, (seed, op)
                victims.add(op[1])
            if op[0] != "d":
                assert op[3] == rows, (seed, op)
                rows += 1
