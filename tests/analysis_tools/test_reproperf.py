"""Self-tests for reproperf: fixtures, baseline mechanics, CLI contract."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis_tools import reproperf

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT = re.compile(r"#\s*expect\[(PF\d{3})\]")

RULES = ["PF001", "PF002", "PF003", "PF004", "PF005"]


def expected_findings(fixture: Path):
    """(rule, line) pairs harvested from ``# expect[PFnnn]`` markers."""
    pairs = set()
    for lineno, text in enumerate(fixture.read_text().splitlines(), start=1):
        match = _EXPECT.search(text)
        if match:
            pairs.add((match.group(1), lineno))
    return pairs


def actual_findings(path: Path):
    findings, _worklist = reproperf.analyze_paths([str(path)])
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
        assert reproperf.main([str(fixture), "--no-baseline"]) == 1

    def test_findings_carry_location_and_hint(self):
        findings, _ = reproperf.analyze_paths([str(FIXTURES / "pf001_bad.py")])
        for finding in findings:
            assert finding.path.endswith("pf001_bad.py")
            assert finding.line > 0
            assert finding.rule in reproperf.RULES
            assert finding.message
            assert finding.hint


class TestRealTree:
    """The kernel tree conforms: the acceptance criteria of the analyzer."""

    def test_kernel_tree_is_clean_under_strict_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert reproperf.main(["--strict-baseline"]) == 0

    def test_remaining_findings_are_accepted_cost_classes_only(self):
        """With inline suppressions applied but no baseline, only
        PF001/PF005 remain — PF002 reloads and PF004 invariant lens are
        fixed, and every @charges contract (PF003) is sound (the few
        inline-suppressed PF003 sites are commented bookkeeping, not
        tuple movement)."""
        targets = [str(REPO_ROOT / target) for target in reproperf.DEFAULT_TARGETS]
        findings, _ = reproperf.analyze_paths(targets)
        active = [f for f in findings if not f.suppressed_by]
        assert {f.rule for f in active} <= {"PF001", "PF005"}
        assert all(
            f.suppressed_by == "inline"
            for f in findings
            if f.rule not in ("PF001", "PF005")
        )

    def test_checked_in_baseline_entries_all_carry_reasons(self):
        entries = reproperf.load_baseline(REPO_ROOT / "reproperf.toml")
        assert entries, "the accepted-cost baseline should not be empty"
        assert all(str(entry["reason"]).strip() for entry in entries)

    def test_migration_worklist_names_per_element_callees(self):
        targets = [str(REPO_ROOT / target) for target in reproperf.DEFAULT_TARGETS]
        _findings, worklist = reproperf.analyze_paths(targets)
        assert worklist, "kernels still make per-element Python calls"
        for callee, sites in worklist.items():
            assert callee
            assert sites
            assert all(":" in site for site in sites)

    def test_kernels_actually_declare_charges(self):
        """The @charges annotations this PR adds are importable and visible."""
        from repro.analysis_tools.guards import charged_counters
        from repro.core.cracking.cracked_column import CrackedColumn

        channels = charged_counters(CrackedColumn.split_at)
        assert "movements" in channels
        assert "comparisons" in channels


class TestSuppression:
    def test_inline_ignore_silences_the_line(self, tmp_path):
        source = (FIXTURES / "pf004_bad.py").read_text().replace(
            "# expect[PF004]", "# reproperf: ignore[PF004]"
        )
        target = tmp_path / "inline.py"
        target.write_text(source)
        findings, _ = reproperf.analyze_paths([str(target)])
        active = [f for f in findings if not f.suppressed_by]
        suppressed = [f for f in findings if f.suppressed_by]
        assert active == []
        assert len(suppressed) == 2

    def test_inline_ignore_accepts_a_rule_list(self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "def helper(item):\n"
            "    return item\n"
            "\n"
            "\n"
            "def run(values):\n"
            "    out = []\n"
            "    for value in values:\n"
            "        out.append(helper(value))  "
            "# reproperf: ignore[PF001, PF005]\n"
            "    return out\n"
        )
        findings, _ = reproperf.analyze_paths([str(target)])
        assert findings, "the fixture should produce a PF005 finding"
        assert all(f.suppressed_by == "inline" for f in findings)

    def test_inline_ignore_does_not_cover_other_rules(self, tmp_path):
        source = (FIXTURES / "pf004_bad.py").read_text().replace(
            "# expect[PF004]", "# reproperf: ignore[PF001]"
        )
        target = tmp_path / "mismatch.py"
        target.write_text(source)
        findings, _ = reproperf.analyze_paths([str(target)])
        assert all(not f.suppressed_by for f in findings)

    def test_baseline_suppresses_matching_finding(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "PF004"\n'
            'path = "pf004_bad.py"\n'
            'reason = "fixture exercises the invariant len on purpose"\n'
        )
        status = reproperf.main(
            [str(FIXTURES / "pf004_bad.py"), "--baseline", str(baseline)]
        )
        assert status == 0

    def test_baseline_symbol_filter_narrows_the_match(self, tmp_path):
        baseline = tmp_path / "narrow.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "PF004"\n'
            'path = "pf004_bad.py"\n'
            'symbol = "walk"\n'
            'reason = "only the first function is accepted"\n'
        )
        status = reproperf.main(
            [str(FIXTURES / "pf004_bad.py"), "--baseline", str(baseline)]
        )
        assert status == 1  # count_below stays active

    def test_baseline_entry_requires_reason(self, tmp_path):
        baseline = tmp_path / "noreason.toml"
        baseline.write_text(
            '[[suppress]]\nrule = "PF004"\npath = "pf004_bad.py"\nreason = ""\n'
        )
        status = reproperf.main(
            [str(FIXTURES / "pf004_bad.py"), "--baseline", str(baseline)]
        )
        assert status == 2

    def test_unused_baseline_entry_warns_but_passes(self, tmp_path, capsys):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "PF001"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        status = reproperf.main(
            [str(FIXTURES / "pf001_good.py"), "--baseline", str(baseline)]
        )
        assert status == 0
        assert "unused baseline entry" in capsys.readouterr().err

    def test_strict_baseline_fails_on_unused_entries(self, tmp_path, capsys):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "PF001"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        status = reproperf.main(
            [
                str(FIXTURES / "pf001_good.py"),
                "--baseline", str(baseline),
                "--strict-baseline",
            ]
        )
        assert status == 1
        assert "error: unused baseline entry" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_shape_and_migration_worklist(self, capsys):
        status = reproperf.main(
            [str(FIXTURES / "pf005_bad.py"), "--no-baseline", "--format=json"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "migration_worklist", "summary"}
        assert payload["summary"]["active"] == 4
        assert {f["rule"] for f in payload["findings"]} == {"PF005"}
        # findings double as the typed-buffer migration worklist
        assert set(payload["migration_worklist"]) == {
            "classify", "CostCounters", "<dynamic>", "advance",
        }
        assert all(
            {"rule", "path", "line", "symbol", "message", "hint"} <= set(f)
            for f in payload["findings"]
        )

    def test_clean_json_run_exits_zero(self, capsys):
        status = reproperf.main(
            [str(FIXTURES / "pf005_good.py"), "--no-baseline", "--format=json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 0
        assert payload["migration_worklist"] == {}
