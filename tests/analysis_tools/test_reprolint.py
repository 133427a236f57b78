"""Self-tests for reprolint: fixtures, inline suppressions, CLI contract."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis_tools import reprolint
from repro.cli import main as repro_main

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
        assert repro_main(["lint", str(fixture)]) == 1

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
    def test_engine_tree_is_clean_under_its_inline_ignores(self):
        assert repro_main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0

    def test_only_durability_write_ahead_findings_are_ignored(self):
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
        assert all(f.suppressed_by == "inline" for f in findings)

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


def _with_ignore(tmp_path, fixture, marker):
    """``fixture`` with every ``# expect[...]`` marker replaced by ``marker``."""
    target = tmp_path / fixture
    target.write_text(
        re.sub(r"# expect\[RL\d{3}\]", marker, (FIXTURES / fixture).read_text())
    )
    findings, _ = reprolint.analyze_paths([str(target)])
    return findings


def _active(findings):
    return sorted((f.rule, f.message) for f in findings if not f.suppressed_by)


class TestSuppression:
    @pytest.mark.parametrize("rule", RULES)
    def test_reasoned_inline_ignore_silences_every_flagged_line(self, rule, tmp_path):
        fixture = f"{rule.lower()}_bad.py"
        findings = _with_ignore(
            tmp_path, fixture,
            f"# reprolint: ignore[{rule}] the fixture breaks the rule on purpose",
        )
        assert _active(findings) == []
        assert sorted(f.line for f in findings) == sorted(
            line for _rule, line in expected_findings(FIXTURES / fixture)
        )

    @pytest.mark.parametrize("rule", RULES)
    def test_an_ignore_without_a_reason_is_a_finding(self, rule, tmp_path):
        fixture = f"{rule.lower()}_bad.py"
        findings = _with_ignore(tmp_path, fixture, f"# reprolint: ignore[{rule}]")
        flagged = len(expected_findings(FIXTURES / fixture))
        assert _active(findings) == [
            ("RL000", f"inline ignore[{rule}] carries no reason"),
        ] * flagged

    @pytest.mark.parametrize("rule", RULES)
    def test_an_ignore_that_silences_nothing_is_a_finding(self, rule, tmp_path):
        other = "RL005" if rule == "RL001" else "RL001"
        fixture = f"{rule.lower()}_bad.py"
        findings = _with_ignore(
            tmp_path, fixture, f"# reprolint: ignore[{other}] wrong rule named",
        )
        flagged = len(expected_findings(FIXTURES / fixture))
        assert _active(findings) == sorted(
            [("RL000", f"inline ignore[{other}] silences no finding on its line")]
            * flagged
            + [(f.rule, f.message) for f in findings if f.rule == rule]
        )
        assert sum(f.rule == rule for f in findings) == flagged

    @pytest.mark.parametrize("rule", RULES)
    def test_a_rule_list_ignore_silences_the_rule_it_names(self, rule, tmp_path):
        other = "RL005" if rule == "RL001" else "RL001"
        findings = _with_ignore(
            tmp_path, f"{rule.lower()}_bad.py",
            f"# reprolint: ignore[{other}, {rule}] listed with another rule",
        )
        assert _active(findings) == []

    @pytest.mark.parametrize("rule", RULES)
    def test_an_ignore_naming_no_rule_silences_nothing(self, rule, tmp_path):
        fixture = f"{rule.lower()}_bad.py"
        findings = _with_ignore(
            tmp_path, fixture, "# reprolint: ignore every rule on this line",
        )
        active = _active(findings)
        flagged = len(expected_findings(FIXTURES / fixture))
        assert sum(r == rule for r, _message in active) == flagged
        assert active.count(
            ("RL000", "inline ignore[] silences no finding on its line")
        ) == flagged

    def test_a_quoted_marker_is_not_an_ignore(self, tmp_path):
        target = tmp_path / "quoted.py"
        target.write_text('"""Silence with ``# reprolint: ignore[RL005] why``."""\n')
        findings, _ = reprolint.analyze_paths([str(target)])
        assert findings == []


class TestJsonOutput:
    def test_json_shape_and_exit_code(self, capsys):
        status = repro_main(["lint", str(FIXTURES / "rl002_bad.py"), "--format=json"])
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
        status = repro_main(["lint", str(FIXTURES / "rl002_good.py"), "--format=json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 0
        # the clean fixture still exercises the order graph
        assert payload["acquisition_graph"]
