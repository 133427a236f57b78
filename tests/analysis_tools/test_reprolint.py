"""Self-tests for reprolint: fixtures, baseline mechanics, CLI contract."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis_tools import reprolint

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT = re.compile(r"#\s*expect\[(RL\d{3})\]")

RULES = ["RL001", "RL002", "RL004", "RL005"]


def expected_findings(fixture: Path):
    """(rule, line) pairs harvested from ``# expect[RLnnn]`` markers."""
    pairs = set()
    for lineno, text in enumerate(fixture.read_text().splitlines(), start=1):
        match = _EXPECT.search(text)
        if match:
            pairs.add((match.group(1), lineno))
    return pairs


def actual_findings(path: Path):
    findings, _graph = reprolint.analyze_paths([str(path)])
    return {(f.rule, f.line) for f in findings}


class TestFixtures:
    @pytest.mark.parametrize("rule", RULES)
    def test_bad_fixture_flags_exact_rule_and_lines(self, rule):
        fixture = FIXTURES / f"{rule.lower()}_bad.py"
        expected = expected_findings(fixture)
        assert expected, f"{fixture} has no expect markers"
        assert actual_findings(fixture) == expected

    @pytest.mark.parametrize("rule", RULES)
    def test_good_fixture_is_clean(self, rule):
        fixture = FIXTURES / f"{rule.lower()}_good.py"
        assert actual_findings(fixture) == set()

    @pytest.mark.parametrize("rule", RULES)
    def test_bad_fixture_exits_nonzero(self, rule):
        fixture = FIXTURES / f"{rule.lower()}_bad.py"
        assert reprolint.main([str(fixture), "--no-baseline"]) == 1

    def test_declared_order_is_clean_outermost_first(self):
        # schema lock -> gate -> path -> WAL-order -> leaf, read from
        # guards.LOCK_ORDER rather than guessed from lock names
        assert actual_findings(FIXTURES / "rl002_declared_order_good.py") == set()

    def test_every_back_edge_of_the_declared_order_is_flagged(self):
        fixture = FIXTURES / "rl002_declared_order_bad.py"
        expected = expected_findings(fixture)
        assert len(expected) == 6
        assert actual_findings(fixture) == expected

    def test_findings_carry_location_and_hint(self):
        findings, _ = reprolint.analyze_paths([str(FIXTURES / "rl001_bad.py")])
        for finding in findings:
            assert finding.path.endswith("rl001_bad.py")
            assert finding.line > 0
            assert finding.rule in reprolint.RULES
            assert finding.message
            assert finding.hint


class TestRealTree:
    def test_engine_tree_is_clean_under_checked_in_baseline(self):
        assert reprolint.main([
            str(REPO_ROOT / "src" / "repro"),
            "--baseline", str(REPO_ROOT / "reprolint.toml"),
            "--strict-baseline",
        ]) == 0

    def test_only_durability_write_ahead_findings_are_baselined(self):
        # The only findings the analyzer is allowed to raise on the real
        # tree are the deliberate durability exceptions: the WAL append
        # under the DML gate (the one commit path every insert, delete and
        # update takes) and the snapshot write under the all-table gate
        # (RL005).  The schema mutex that snapshot() and drop_table take
        # first is clean by declaration (guards.LOCK_ORDER ranks it above
        # the gates).  Anything else is a regression.
        findings, _graph = reprolint.analyze_paths(
            [str(REPO_ROOT / "src" / "repro")]
        )
        locations = {(f.rule, f.symbol) for f in findings}
        assert locations == {
            ("RL005", "Session._commit_dml"),
            ("RL005", "Database.snapshot"),
        }

    def test_checked_in_baseline_entries_are_reasoned(self):
        entries = reprolint.load_baseline(REPO_ROOT / "reprolint.toml")
        assert len(entries) == 2
        by_rule = {}
        for entry in entries:
            by_rule.setdefault(entry["rule"], 0)
            by_rule[entry["rule"]] += 1
            assert len(entry["reason"]) > 40
        assert by_rule == {"RL005": 2}

    def test_acquisition_graph_records_gate_before_wal_order_lock(self):
        # The analyzer is lexical.  The session's one query path
        # (``_execute_batch``, a lone query included) takes the path locks
        # inside the read gate in one body, and the one commit path takes
        # the WAL-order lock inside the write gate: both edges must stay
        # visible.
        _findings, graph = reprolint.analyze_paths(
            [str(REPO_ROOT / "src" / "repro" / "engine")]
        )
        assert ("gate.read", "path") in graph
        assert ("gate.write", "wal_order._wal_order_lock") in graph
        # and the schema lock is taken ahead of the gates, never after
        assert ("schema._schema_lock", "gate.write_all") in graph


class TestSuppression:
    def test_inline_ignore_silences_one_line(self, tmp_path):
        source = (FIXTURES / "rl004_bad.py").read_text().replace(
            "# expect[RL004]", "# reprolint: ignore[RL004]"
        )
        target = tmp_path / "inline.py"
        target.write_text(source)
        findings, _ = reprolint.analyze_paths([str(target)])
        active = [f for f in findings if not f.suppressed_by]
        suppressed = [f for f in findings if f.suppressed_by]
        assert active == []
        assert len(suppressed) == 1

    def test_baseline_suppresses_matching_finding(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "RL004"\n'
            'path = "rl004_bad.py"\n'
            'reason = "fixture exercises the unlocked increment on purpose"\n'
        )
        status = reprolint.main(
            [str(FIXTURES / "rl004_bad.py"), "--baseline", str(baseline)]
        )
        assert status == 0

    def test_baseline_entry_requires_reason(self, tmp_path):
        baseline = tmp_path / "noreason.toml"
        baseline.write_text(
            '[[suppress]]\nrule = "RL004"\npath = "rl004_bad.py"\nreason = ""\n'
        )
        status = reprolint.main(
            [str(FIXTURES / "rl004_bad.py"), "--baseline", str(baseline)]
        )
        assert status == 2

    def test_unused_baseline_entry_is_reported(self, tmp_path, capsys):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "RL001"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        status = reprolint.main(
            [str(FIXTURES / "rl001_good.py"), "--baseline", str(baseline)]
        )
        assert status == 0
        assert "unused baseline entr" in capsys.readouterr().err

    def test_strict_baseline_fails_on_unused_entries(self, tmp_path, capsys):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "RL001"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        status = reprolint.main(
            [
                str(FIXTURES / "rl001_good.py"),
                "--baseline", str(baseline),
                "--strict-baseline",
            ]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_shape_and_exit_code(self, capsys):
        status = reprolint.main(
            [str(FIXTURES / "rl002_bad.py"), "--no-baseline", "--format=json"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "acquisition_graph", "summary"}
        assert payload["summary"]["active"] == 2
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"RL002"}
        assert all(
            {"rule", "path", "line", "symbol", "message", "hint"} <= set(f)
            for f in payload["findings"]
        )

    def test_clean_json_run_exits_zero(self, capsys):
        status = reprolint.main(
            [str(FIXTURES / "rl002_good.py"), "--no-baseline", "--format=json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 0
        # the clean fixture still exercises the order graph
        assert payload["acquisition_graph"]
