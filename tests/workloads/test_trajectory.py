"""``benchmarks/trajectory.py`` on canned e21 reports: no benchmark runs.

The three reports under ``trajectory/`` are ``durable_dml`` runs at seed 21,
trimmed to what the trajectory reads.  A fake runner hands them out, so
the aggregation, the refusal to record disagreeing runs, the comparison
with a recorded entry and the A/B verdict are checked without a 1M-row run.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

import trajectory  # noqa: E402

CANNED = sorted((Path(__file__).parent / "trajectory").glob("durable_dml-*.json"))
METRICS = [m["name"] for m in trajectory.load_contract()["end_to_end"]]


@pytest.fixture
def reports():
    return [json.loads(path.read_text()) for path in CANNED]


def runner(reports):
    """A fake ``run_report``: the given reports in turn, recording each call."""
    queue = list(reports)
    calls = []

    def run(checkout, workload, seed, path):
        calls.append((checkout, workload, seed))
        return queue.pop(0)

    run.calls = calls
    return run


def test_a_metric_has_an_adjusted_and_a_raw_view(reports):
    report = reports[0]
    recovery = trajectory.metric_views(report, "recovery_s")
    assert recovery == {"adjusted": report["metrics"]["recovery_s"]["value"],
                        "raw": report["extras"]["raw.recovery_s"]["value"]}
    # set-up is reported raw: its adjusted value is the extra
    setup = trajectory.metric_views(report, "setup_s")
    assert setup == {"adjusted": report["extras"]["adjusted.setup_s"]["value"],
                     "raw": report["metrics"]["setup_s"]["value"]}
    rss = report["metrics"]["peak_rss_mb"]["value"]
    assert trajectory.metric_views(report, "peak_rss_mb") == {"adjusted": rss, "raw": rss}


def test_quartiles_are_inclusive():
    assert trajectory.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
    assert trajectory.quartiles([4.0, 1.0, 2.0]) == {
        "median": 2.0, "q1": 1.5, "q3": 3.0, "n": 3}


def test_a_recorded_cell_holds_the_exact_counts_and_every_metric(reports):
    cell = trajectory.aggregate(reports, METRICS)
    assert cell["facts"] == reports[0]["facts"]
    assert cell["facts"]["replayed_ops"] == 181
    assert cell["counts"] == reports[0]["counts"]
    assert sorted(cell["metrics"]) == sorted(METRICS)
    low, mid, high = sorted(r["metrics"]["recovery_s"]["value"] for r in reports)
    assert cell["metrics"]["recovery_s"]["adjusted"] == {
        "median": mid, "q1": (low + mid) / 2, "q3": (mid + high) / 2, "n": 3}
    raw = sorted(r["extras"]["raw.recovery_s"]["value"] for r in reports)
    assert cell["metrics"]["recovery_s"]["raw"]["median"] == raw[1]
    assert cell["metrics"]["recovery_s"]["unit"] == "s"


@pytest.mark.parametrize("section, key", [("facts", "replayed_ops"), ("counts", "inserts")])
def test_runs_that_disagree_are_not_recorded(reports, tmp_path, section, key):
    reports[2] = copy.deepcopy(reports[2])
    reports[2][section][key] += 1
    with pytest.raises(trajectory.Disagreement, match=f"{section}.{key}"):
        trajectory.record([21], 3, ["durable_dml"], runner(reports), tmp_path)


def test_record_runs_each_workload_and_seed_and_appends_an_entry(reports, tmp_path):
    run = runner(reports + reports)
    entry = trajectory.record([21, 99], 3, ["durable_dml"], run, tmp_path)
    assert [call[1:] for call in run.calls] == [("durable_dml", 21)] * 3 + [("durable_dml", 99)] * 3
    assert sorted(entry["workloads"]["durable_dml"]) == ["21", "99"]
    assert entry["runs"] == 3
    assert entry["host"] == {field: reports[0]["provenance"][field]
                             for field in trajectory.HOST_FIELDS}
    path = tmp_path / "BENCH.json"
    trajectory.append_entry(entry, path)
    trajectory.append_entry(entry, path)
    document = json.loads(path.read_text())
    assert document["benchmark"] == "e21_layers"
    assert len(document["entries"]) == 2


def recorded_entry(reports, host=None):
    entry = {"host": host or trajectory.host_stamp(reports[0]),
             "workloads": {"durable_dml": {"21": trajectory.aggregate(reports, METRICS)}}}
    return entry


def test_check_passes_a_run_inside_the_record(reports, tmp_path):
    problems = trajectory.check(recorded_entry(reports), runner([reports[1]]), tmp_path)
    assert problems == []


def test_check_names_every_exact_count_that_moved(reports, tmp_path):
    moved = copy.deepcopy(reports[1])
    moved["facts"]["replayed_ops"] = 180
    moved["counts"]["deletes"] += 2
    problems = trajectory.check(recorded_entry(reports), runner([moved]), tmp_path)
    assert len(problems) == 2
    assert "facts.replayed_ops: recorded 181, measured 180" in problems[0]
    assert "counts.deletes" in problems[1]


@pytest.mark.parametrize("same_host", [True, False])
def test_check_gates_wall_clock_only_on_the_recording_host(reports, tmp_path, same_host):
    slow = copy.deepcopy(reports[1])
    slow["metrics"]["recovery_s"]["value"] *= 2  # worse than the 25 % bound
    host = None if same_host else {"cpu": "another"}
    problems = trajectory.check(recorded_entry(reports, host), runner([slow]), tmp_path)
    gated = [p for p in problems
             if p.startswith("durable_dml seed 21: recovery_s worse than the recorded median")]
    assert len(gated) == (1 if same_host else 0)
    assert len(problems) == len(gated)


def faster(report, factor):
    report = copy.deepcopy(report)
    report["metrics"]["recovery_s"]["value"] *= factor
    report["extras"]["raw.recovery_s"]["value"] *= factor
    return report


def test_ab_alternates_and_calls_a_clear_gain(reports, tmp_path):
    base = [reports[i % 3] for i in range(10)]
    head = [faster(report, 0.7) for report in base]
    order = []
    for index in range(10):
        order += [base[index], head[index]] if index % 2 == 0 else [head[index], base[index]]
    run = runner(order)
    result = trajectory.ab(Path("rev"), ["durable_dml"], 21, 10, run, tmp_path)
    sides = [call[0] for call in run.calls]
    assert sides[:4] == [Path("rev"), trajectory.REPO_ROOT, trajectory.REPO_ROOT, Path("rev")]
    rows = {(row["metric"], row["view"]): row for row in result["durable_dml"]["rows"]}
    for view in ("adjusted", "raw"):
        assert rows["recovery_s", view]["wins"] == 10
        assert rows["recovery_s", view]["gain"]
        assert rows["recovery_s", view]["change"] == pytest.approx(0.3)
    # an unchanged metric wins no pair and claims nothing
    assert rows["query_p50_ms", "adjusted"]["wins"] == 0
    assert not rows["query_p50_ms", "adjusted"]["gain"]
    assert result["durable_dml"]["exact"] == []


def test_a_gain_inside_the_spread_or_on_too_few_pairs_is_no_gain(reports):
    base = [reports[i % 3] for i in range(10)]
    metric = {"name": "recovery_s", "better": "lower"}
    # 1 % faster on every pair: wins all ten, but the gap is inside REV's IQR
    row = trajectory.compare_pairs(base, [faster(r, 0.99) for r in base], metric, "adjusted")
    assert row["wins"] == 10 and not row["gain"]
    # much faster on eight pairs only
    head = [faster(r, 0.5 if i < 8 else 1.5) for i, r in enumerate(base)]
    row = trajectory.compare_pairs(base, head, metric, "adjusted")
    assert row["wins"] == 8 and not row["gain"]


@pytest.mark.skipif(not (trajectory.REPO_ROOT / ".git").exists() or not shutil.which("git"),
                    reason="needs the git checkout")
def test_ab_runs_this_side_from_a_plain_copy(tmp_path):
    copy = trajectory.export_checkout(tmp_path / "this")
    assert not (copy / ".git").exists()
    for name in ("benchmarks/trajectory.py", "BENCHMARK.json",
                 "src/repro/durability/recovery.py"):
        assert (copy / name).read_bytes() == (trajectory.REPO_ROOT / name).read_bytes()
    assert not list(copy.rglob("__pycache__"))
