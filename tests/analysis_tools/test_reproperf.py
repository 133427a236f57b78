"""Self-tests for reproperf, the kernel analyzer: fixtures for all ten rules
(PF001–PF005, TB001–TB005), baseline mechanics, CLI contract."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis_tools import reproperf
from repro.analysis_tools.common import apply_baseline, load_baseline

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_EXPECT = re.compile(r"#\s*expect\[((?:PF|TB)\d{3})\]")

RULES = sorted(reproperf.RULES)


def expected_findings(fixture: Path):
    """(rule, line) pairs harvested from ``# expect[RULE]`` markers."""
    pairs = set()
    for lineno, text in enumerate(fixture.read_text().splitlines(), start=1):
        match = _EXPECT.search(text)
        if match:
            pairs.add((match.group(1), lineno))
    return pairs


def actual_findings(path: Path):
    findings, _aux = reproperf.analyze_paths([str(path)])
    return {(f.rule, f.line) for f in findings}


def kernel_targets():
    return [str(REPO_ROOT / target) for target in reproperf.DEFAULT_TARGETS]


def test_the_rule_table_has_both_families():
    assert RULES == [f"PF00{n}" for n in range(1, 6)] + [
        f"TB00{n}" for n in range(1, 6)
    ]


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

    @pytest.mark.parametrize("rule", ["PF001", "TB001"])
    def test_findings_carry_location_and_hint(self, rule):
        name = f"{rule.lower()}_bad.py"
        findings, _ = reproperf.analyze_paths([str(FIXTURES / name)])
        for finding in findings:
            assert finding.path.endswith(name)
            assert finding.line > 0
            assert finding.rule in reproperf.RULES
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
        _findings, (_worklist, inventory) = reproperf.analyze_paths(
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
        _findings, (_worklist, inventory) = reproperf.analyze_paths(kernel_targets())
        symbols = {decl.symbol for decl in inventory}
        assert {
            "crack_value",
            "crack_range",
            "ripple_insert_value",
            "ripple_delete_position",
            "CrackedColumn._apply_ripple_batch",
        } <= symbols


class TestRealTree:
    """The kernel tree conforms: the acceptance criteria of the analyzer."""

    def test_kernel_tree_is_clean_under_strict_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert reproperf.main(["--strict-baseline"]) == 0

    def test_remaining_findings_are_accepted_cost_classes_only(self):
        """With inline suppressions applied but no baseline, only
        PF001/PF005 and the one sequential typed-kernel loop (TB001)
        remain — PF002 reloads and PF004 invariant lens are fixed, and every
        @charges contract (PF003) is sound (the few inline-suppressed PF003
        sites are commented bookkeeping, not tuple movement)."""
        findings, _ = reproperf.analyze_paths(kernel_targets())
        active = [f for f in findings if not f.suppressed_by]
        assert {f.rule for f in active} <= {"PF001", "PF005", "TB001"}
        assert all(
            f.suppressed_by == "inline"
            for f in findings
            if f.rule not in ("PF001", "PF005", "TB001")
        )

    def test_checked_in_baseline_entries_all_carry_reasons(self):
        entries = reproperf.load_baseline(REPO_ROOT / "reproperf.toml")
        assert entries, "the accepted-cost baseline should not be empty"
        assert all(str(entry["reason"]).strip() for entry in entries)

    def test_migration_worklist_names_per_element_callees(self):
        _findings, (worklist, _inventory) = reproperf.analyze_paths(kernel_targets())
        assert worklist, "kernels still make per-element Python calls"
        for callee, sites in worklist.items():
            assert callee
            assert sites
            assert all(":" in site for site in sites)

    def test_kernels_actually_declare_charges(self):
        """The @charges annotations are importable and visible."""
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

    def test_inline_ignore_silences_one_line(self, tmp_path):
        source = (FIXTURES / "tb005_bad.py").read_text().replace(
            "values[position] = value  # expect[TB005]",
            "values[position] = value  # reproperf: ignore[TB005]",
        )
        target = tmp_path / "inline.py"
        target.write_text(source)
        findings, _ = reproperf.analyze_paths([str(target)])
        active = [f for f in findings if not f.suppressed_by]
        suppressed = [f for f in findings if f.suppressed_by]
        assert [(f.rule, f.line) for f in suppressed] == [("TB005", 8)]
        assert {f.rule for f in active} == {"TB005"}
        assert all(f.line != 8 for f in active)

    def test_inline_ignore_accepts_a_rule_list(self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "from repro.analysis_tools.guards import typed_kernel\n"
            "\n"
            "\n"
            "def helper(item):\n"
            "    return item\n"
            "\n"
            "\n"
            "@typed_kernel(buffers={'values': 'numeric'})\n"
            "def run(values):\n"
            "    out = []\n"
            "    for value in values:  # reproperf: ignore[TB001]\n"
            "        out.append(helper(value))  "
            "# reproperf: ignore[PF001, PF005]\n"
            "    return out\n"
        )
        findings, _ = reproperf.analyze_paths([str(target)])
        assert {f.rule for f in findings} == {"PF005", "TB001"}
        assert all(f.suppressed_by == "inline" for f in findings)

    @pytest.mark.parametrize(
        "rule, other", [("PF004", "PF001"), ("TB005", "TB001")]
    )
    def test_inline_ignore_does_not_cover_other_rules(
        self, tmp_path, rule, other
    ):
        source = (FIXTURES / f"{rule.lower()}_bad.py").read_text().replace(
            f"# expect[{rule}]", f"# reproperf: ignore[{other}]"
        )
        target = tmp_path / "mismatch.py"
        target.write_text(source)
        findings, _ = reproperf.analyze_paths([str(target)])
        assert all(not f.suppressed_by for f in findings)

    @pytest.mark.parametrize("rule", ["PF004", "TB002"])
    def test_baseline_suppresses_matching_finding(self, tmp_path, rule):
        fixture = FIXTURES / f"{rule.lower()}_bad.py"
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[suppress]]\n'
            f'rule = "{rule}"\n'
            f'path = "{fixture.name}"\n'
            'reason = "the fixture breaks the rule on purpose"\n'
        )
        status = reproperf.main([str(fixture), "--baseline", str(baseline)])
        assert status == 0

    @pytest.mark.parametrize("rule", ["PF001", "TB001"])
    def test_baseline_path_matches_on_a_path_boundary(self, tmp_path, rule):
        """An entry for ``pf001_bad.py`` must not cover ``xpf001_bad.py``."""
        fixture = FIXTURES / f"{rule.lower()}_bad.py"
        target = tmp_path / f"x{fixture.name}"
        target.write_text(fixture.read_text())
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[suppress]]\n'
            f'rule = "{rule}"\n'
            f'path = "{fixture.name}"\n'
            'reason = "covers the fixture, not a file that merely ends alike"\n'
        )
        assert reproperf.main([str(target), "--baseline", str(baseline)]) == 1
        assert reproperf.main([str(fixture), "--baseline", str(baseline)]) == 0

    def test_baseline_suppresses_matching_symbol(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[suppress]]\n'
            'rule = "TB001"\n'
            'path = "tb001_bad.py"\n'
            'symbol = "cursor_walk"\n'
            'reason = "fixture keeps the cursor walk on purpose"\n'
        )
        findings, _ = reproperf.analyze_paths([str(FIXTURES / "tb001_bad.py")])
        unused = apply_baseline(findings, load_baseline(baseline))
        assert unused == []
        suppressed = [f for f in findings if f.suppressed_by == "baseline"]
        assert [f.symbol for f in suppressed] == ["cursor_walk"]
        assert len(findings) > len(suppressed)  # the other kernels stay active

    @pytest.mark.parametrize("rule, reason", [("PF004", ""), ("TB001", " ")])
    def test_baseline_entry_requires_reason(self, tmp_path, rule, reason):
        fixture = FIXTURES / f"{rule.lower()}_bad.py"
        baseline = tmp_path / "noreason.toml"
        baseline.write_text(
            f'[[suppress]]\nrule = "{rule}"\npath = "{fixture.name}"\n'
            f'reason = "{reason}"\n'
        )
        status = reproperf.main([str(fixture), "--baseline", str(baseline)])
        assert status == 2

    @pytest.mark.parametrize("rule", ["PF001", "TB001"])
    def test_unused_baseline_entry_warns_but_passes(
        self, tmp_path, capsys, rule
    ):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            f'rule = "{rule}"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        fixture = FIXTURES / f"{rule.lower()}_good.py"
        status = reproperf.main([str(fixture), "--baseline", str(baseline)])
        assert status == 0
        assert "unused baseline entry" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["PF001", "TB001"])
    def test_strict_baseline_fails_on_unused_entries(
        self, tmp_path, capsys, rule
    ):
        baseline = tmp_path / "stale.toml"
        baseline.write_text(
            '[[suppress]]\n'
            f'rule = "{rule}"\n'
            'path = "no/such/file.py"\n'
            'reason = "stale entry"\n'
        )
        status = reproperf.main(
            [
                str(FIXTURES / f"{rule.lower()}_good.py"),
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
        assert set(payload) == {
            "findings", "migration_worklist", "kernel_inventory", "summary",
        }
        assert payload["summary"]["active"] == 4
        assert {f["rule"] for f in payload["findings"]} == {"PF005"}
        # findings double as the typed-buffer migration worklist
        assert set(payload["migration_worklist"]) == {
            "classify", "CostCounters", "<dynamic>", "advance",
        }
        assert payload["kernel_inventory"] == []
        assert all(
            {"rule", "path", "line", "symbol", "message", "hint"} <= set(f)
            for f in payload["findings"]
        )

    def test_json_shape_and_kernel_inventory(self, capsys):
        status = reproperf.main(
            [str(FIXTURES / "tb002_bad.py"), "--no-baseline", "--format=json"]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "findings", "migration_worklist", "kernel_inventory", "summary",
        }
        assert payload["summary"]["active"] == 4
        assert {f["rule"] for f in payload["findings"]} == {"TB002"}
        kernels = {entry["kernel"] for entry in payload["kernel_inventory"]}
        assert "box_with_tolist" in kernels
        for entry in payload["kernel_inventory"]:
            assert {"kernel", "path", "line", "buffers", "mutates"} <= set(entry)

    def test_clean_json_run_exits_zero(self, capsys):
        status = reproperf.main(
            [str(FIXTURES / "tb002_good.py"), "--no-baseline", "--format=json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 0
        assert payload["migration_worklist"] == {}
        assert payload["kernel_inventory"]
        for entry in payload["kernel_inventory"]:
            assert {"kernel", "path", "line", "buffers", "mutates"} <= set(entry)
