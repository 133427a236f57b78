"""Self-tests for reprotype: fixtures, baseline mechanics, CLI contract."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis_tools import reprotype

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT = re.compile(r"#\s*expect\[(TB\d{3})\]")

RULES = ["TB001", "TB002", "TB003", "TB004", "TB005"]


def expected_findings(fixture: Path):
    """(rule, line) pairs harvested from ``# expect[TBnnn]`` markers."""
    pairs = set()
    for lineno, text in enumerate(fixture.read_text().splitlines(), start=1):
        match = _EXPECT.search(text)
        if match:
            pairs.add((match.group(1), lineno))
    return pairs


def actual_findings(path: Path):
    findings, _inventory = reprotype.analyze_paths([str(path)])
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
        assert reprotype.main([str(fixture), "--no-baseline"]) == 1

    def test_findings_carry_location_and_hint(self):
        findings, _ = reprotype.analyze_paths([str(FIXTURES / "tb001_bad.py")])
        for finding in findings:
            assert finding.path.endswith("tb001_bad.py")
            assert finding.line > 0
            assert finding.rule in reprotype.RULES
            assert finding.message
            assert finding.hint

    def test_rules_apply_only_inside_typed_kernels(self, tmp_path):
        module = tmp_path / "plain.py"
        module.write_text(
            "def plain(values):\n"
            "    total = 0.0\n"
            "    for value in values:\n"
            "        total += value\n"
            "    return total\n"
        )
        assert actual_findings(module) == set()


class TestInventory:
    def test_inventory_lists_every_declaration(self):
        _findings, inventory = reprotype.analyze_paths(
            [str(FIXTURES / "tb005_good.py")]
        )
        symbols = {decl.symbol for decl in inventory}
        assert "declared_store" in symbols and "sorted_copy" in symbols
        declared = {
            decl.symbol: decl for decl in inventory
        }["declared_store"]
        assert declared.buffers == {"values": "numeric"}
        assert declared.mutates == {"values"}

    def test_real_tree_inventory_covers_the_crack_kernels(self):
        _findings, inventory = reprotype.analyze_paths(
            [str(REPO_ROOT / path) for path in reprotype.DEFAULT_TARGETS]
        )
        symbols = {decl.symbol for decl in inventory}
        assert {
            "crack_value",
            "crack_range",
            "ripple_insert_value",
            "ripple_delete_position",
            "CrackedColumn._apply_ripple_batch",
        } <= symbols


class TestRealTree:
    def test_kernel_tree_is_clean_under_strict_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert reprotype.main(["--strict-baseline"]) == 0

    def test_checked_in_baseline_entries_carry_reasons(self):
        entries = reprotype.load_baseline(REPO_ROOT / "reprotype.toml")
        for entry in entries:
            assert entry["reason"].strip()


class TestSuppression:
    def test_inline_ignore_silences_one_line(self, tmp_path):
        source = (FIXTURES / "tb005_bad.py").read_text().replace(
            "values[position] = value  # expect[TB005]",
            "values[position] = value  # reprotype: ignore[TB005]",
        )
        target = tmp_path / "inline.py"
        target.write_text(source)
        findings, _ = reprotype.analyze_paths([str(target)])
        active = [f for f in findings if not f.suppressed_by]
        assert {(f.rule, f.line) for f in active} < {
            (f.rule, f.line) for f in findings
        }
        assert all(f.line != 8 for f in active)

    def test_baseline_suppresses_matching_symbol(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "TB001"\n'
            'path = "tb001_bad.py"\n'
            'symbol = "cursor_walk"\n'
            'reason = "fixture keeps the cursor walk on purpose"\n'
        )
        findings, _ = reprotype.analyze_paths([str(FIXTURES / "tb001_bad.py")])
        from repro.analysis_tools.common import apply_baseline, load_baseline

        unused = apply_baseline(findings, load_baseline(baseline))
        assert unused == []
        suppressed = [f for f in findings if f.suppressed_by == "baseline"]
        assert [f.symbol for f in suppressed] == ["cursor_walk"]

    def test_baseline_entry_requires_reason(self, tmp_path):
        baseline = tmp_path / "noreason.toml"
        baseline.write_text(
            '[[suppress]]\nrule = "TB001"\npath = "tb001_bad.py"\nreason = " "\n'
        )
        status = reprotype.main(
            [str(FIXTURES / "tb001_bad.py"), "--baseline", str(baseline)]
        )
        assert status == 2

    def test_strict_baseline_fails_on_unused_entries(self, tmp_path, capsys):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "TB001"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        status = reprotype.main(
            [
                str(FIXTURES / "tb001_good.py"),
                "--baseline", str(baseline),
                "--strict-baseline",
            ]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_shape_and_kernel_inventory(self, capsys):
        status = reprotype.main(
            [str(FIXTURES / "tb002_bad.py"), "--no-baseline", "--format=json"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "kernel_inventory", "summary"}
        assert payload["summary"]["active"] == 4
        assert {f["rule"] for f in payload["findings"]} == {"TB002"}
        kernels = {entry["kernel"] for entry in payload["kernel_inventory"]}
        assert "box_with_tolist" in kernels
        for entry in payload["kernel_inventory"]:
            assert {"kernel", "path", "line", "buffers", "mutates"} <= set(entry)

    def test_clean_json_run_exits_zero(self, capsys):
        status = reprotype.main(
            [str(FIXTURES / "tb002_good.py"), "--no-baseline", "--format=json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 0
        assert payload["kernel_inventory"]
