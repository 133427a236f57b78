"""The tutorial's figure set, gated in tier-1.

Every row of ``benchmarks/figures.py`` runs at its gate size; every
expectation predicate (the paper's expected shape) must hold and the
measured cells must equal the checked-in ``FIGURES.json`` — exact counters,
answer checksums, derived ratios.  A real change to a kernel or the cost
model re-records the file (``python benchmarks/figures.py --record``) in
the same commit.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import figures  # noqa: E402

RECORDED = json.loads(figures.FIGURES_PATH.read_text())


def test_the_gate_file_holds_exactly_the_table():
    assert sorted(RECORDED) == sorted(figures.BY_ID)
    assert [e.id for e in figures.EXPERIMENTS] == sorted(figures.BY_ID)


@pytest.mark.parametrize("experiment", figures.EXPERIMENTS, ids=lambda e: e.id)
def test_row_has_its_shape_and_its_recorded_counters(experiment, pool_submits):
    results = figures.run_experiment(experiment, *experiment.gate)
    assert results.failed() == []
    assert figures.differences(RECORDED[experiment.id], results.record()) == []
    # a ``parallel`` variant (e15-e17) really ran on its pool: at gate size
    # the column's own decision would make it one more sequential cell
    assert bool(pool_submits) == any(
        options.get("parallel") for _, options in experiment.variants.values())


def test_a_drifted_counter_is_reported_with_its_path():
    then = {"cells": {"random": {"scan": {"comparisons": 1, "tuples_moved": 0}}}}
    now = {"cells": {"random": {"scan": {"comparisons": 2, "tuples_moved": 0}}}}
    (message,) = figures.differences(then, now)
    assert message.startswith("cells/random/scan/comparisons drifted 1 -> 2")


def test_check_exits_nonzero_on_drift(tmp_path, monkeypatch, capsys):
    drifted = json.loads(json.dumps(RECORDED))
    drifted["e02"]["cells"]["random"]["cracking"]["comparisons"] += 1
    path = tmp_path / "FIGURES.json"
    path.write_text(json.dumps(drifted))
    monkeypatch.setattr(figures, "FIGURES_PATH", path)
    assert figures.main(["--only", "e02", "--check"]) == 1
    assert "e02: cells/random/cracking/comparisons drifted" in capsys.readouterr().err
    assert figures.main(["--only", "e01", "--check"]) == 0
