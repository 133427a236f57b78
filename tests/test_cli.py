"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.strategies import available_strategies


class TestStrategiesCommand:
    def test_lists_all_strategies(self, capsys):
        assert main(["strategies"]) == 0
        output = capsys.readouterr().out.splitlines()
        assert set(available_strategies()).issubset(set(output))


class TestCompareCommand:
    def test_text_output(self, capsys):
        code = main([
            "compare", "--rows", "5000", "--queries", "30",
            "--strategies", "scan,cracking", "--pattern", "random",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "scan" in output and "cracking" in output
        assert "first-query/scan" in output

    def test_markdown_output(self, capsys):
        code = main([
            "compare", "--rows", "5000", "--queries", "20",
            "--strategies", "cracking", "--format", "markdown",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("| strategy")

    def test_csv_output(self, capsys):
        code = main([
            "compare", "--rows", "5000", "--queries", "20",
            "--strategies", "cracking", "--format", "csv",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("strategy,")

    def test_series_csv_written(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        code = main([
            "compare", "--rows", "5000", "--queries", "20",
            "--strategies", "scan,cracking", "--series-csv", str(path),
        ])
        assert code == 0
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "query,cracking,scan"

    def test_unknown_strategy_is_an_error(self, capsys):
        code = main([
            "compare", "--rows", "1000", "--queries", "5",
            "--strategies", "quantum-index",
        ])
        assert code == 2
        assert "unknown strategies" in capsys.readouterr().err

    def test_partitioned_strategies_report_their_physical_state(self, capsys):
        code = main([
            "compare", "--rows", "3000", "--queries", "15", "--partitions", "3",
            "--strategies", "partitioned-cracking,updatable-cracking",
            "--policy", "gradual",
        ])
        assert code == 0
        states = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("physical state")]
        assert len(states) == 1
        assert "[partitioned-cracking]: partitioned cracking: 3 partitions" in states[0]

    def test_patterns_accepted(self, capsys):
        for pattern in ("skewed", "sequential", "periodic", "piecewise"):
            code = main([
                "compare", "--rows", "3000", "--queries", "15",
                "--strategies", "cracking", "--pattern", pattern,
            ])
            assert code == 0


class TestUpdatesCommand:
    def test_updates_runs_updatable_strategy(self, capsys):
        code = main([
            "updates", "--rows", "3000", "--queries", "20",
            "--updates-per-query", "2", "--strategy", "updatable-cracking",
            "--policy", "gradual", "--merge-batch", "8",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "update throughput" in output
        assert "pending (gradual)" in output

    def test_updates_runs_partitioned_strategy(self, capsys):
        code = main([
            "updates", "--rows", "3000", "--queries", "15",
            "--strategy", "partitioned-cracking",
            "--partitions", "3",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        design = [line for line in lines if line.startswith("physical design")]
        assert len(design) == 1 and "3 partitions" in design[0]

    def test_updates_scan_baseline(self, capsys):
        assert main(["updates", "--rows", "2000", "--queries", "10",
                     "--strategy", "scan"]) == 0
        assert "query cost" in capsys.readouterr().out

    def test_updates_unknown_strategy(self, capsys):
        code = main(["updates", "--rows", "1000", "--strategy", "quantum"])
        assert code == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_updates_parallel_fan_out(self, capsys):
        code = main([
            "updates", "--rows", "3000", "--queries", "10",
            "--updates-per-query", "1",
            "--strategy", "partitioned-cracking",
            "--partitions", "2", "--parallel",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 partitions" in output
        assert "update throughput" in output

    def test_updates_validates_counts(self, capsys):
        assert main(["updates", "--rows", "100", "--queries", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert main(["updates", "--rows", "100", "--updates-per-query", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert main(["updates", "--rows", "100", "--merge-batch", "0"]) == 2
        assert "merge-batch" in capsys.readouterr().err


class TestPartitionFlags:
    """The flags ``compare`` and ``updates`` share for the partitioned names."""

    @pytest.mark.parametrize("command", ["compare", "updates"])
    def test_partition_flags_are_validated(self, command, capsys):
        for flag, message in [("--partitions=0", "--partitions must be >= 1"),
                              ("--merge-batch=0", "--merge-batch must be >= 1")]:
            assert main([command, "--rows", "100", flag]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "updates"])
    @pytest.mark.parametrize(
        "flag", ["--repartition", "--max-partition-rows=100", "--split-threshold=2"],
    )
    def test_the_repartitioning_flags_are_gone(self, command, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command, "--strategies" if command == "compare" else "--strategy",
                  "partitioned-cracking", flag])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDurableCommands:
    """``updates --data-dir`` writes a journal; ``recover`` and ``snapshot``
    reopen it."""

    UPDATES = ["updates", "--rows", "2000", "--queries", "10",
               "--strategy", "updatable-cracking", "--partitions", "3",
               "--policy", "gradual", "--merge-batch", "4"]

    def test_updates_journals_only_the_options_its_strategy_takes(self, tmp_path,
                                                                  capsys):
        from repro.engine.database import Database

        assert main(self.UPDATES + ["--data-dir", str(tmp_path)]) == 0
        assert "durability" in capsys.readouterr().out
        database = Database.open(tmp_path)
        assert database.indexing_mode("data", "key") == "updatable-cracking"
        assert database._mode_options[("data", "key")] == {
            "policy": "gradual", "merge_batch": 4}
        database.close()

    def test_recover_and_snapshot_reopen_what_updates_wrote(self, tmp_path, capsys):
        assert main(self.UPDATES + ["--data-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["recover", "--data-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "snapshot used     : none (journal only)" in output
        assert "table             : data" in output
        assert main(["snapshot", "--data-dir", str(tmp_path)]) == 0
        assert "snapshot written" in capsys.readouterr().out
        assert main(["recover", "--data-dir", str(tmp_path)]) == 0
        assert "replayed          : 0 operations" in capsys.readouterr().out


class TestDemoAndDefaults:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--rows", "5000", "--queries", "20"]) == 0
        output = capsys.readouterr().out
        assert "database cracking over" in output
        assert "structure:" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_batch_is_not_a_command(self, capsys):
        # a batch runs on one thread: there is no parallel run to compare
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--parallel"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err


class TestLintCommand:
    """``repro lint`` runs the one static analyzer, reprolint."""

    @pytest.fixture(autouse=True)
    def _from_the_repo_root(self, monkeypatch):
        # the default scope is root-relative
        monkeypatch.chdir(Path(__file__).resolve().parents[1])

    def test_json_is_reprolints_document(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"findings", "acquisition_graph", "summary"}
        assert document["summary"] == {"total": 2, "active": 0, "suppressed": 2}
        assert {f["suppressed_by"] for f in document["findings"]} == {"inline"}

    def test_text_output_summarises_the_run(self, capsys):
        assert main(["lint"]) == 0
        assert "reprolint: 0 finding(s) (2 suppressed" in capsys.readouterr().err

    def test_explicit_paths_are_analyzed(self, capsys):
        fixtures = "tests/analysis_tools/fixtures"
        status = main([
            "lint", f"{fixtures}/rl004_bad.py", f"{fixtures}/rl005_bad.py",
            "--format", "json",
        ])
        assert status == 1
        document = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in document["findings"]} == {"RL004", "RL005"}

    def test_a_missing_path_is_a_usage_error(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "reprolint: not a python file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--style", "--perf", "--types", "--baseline", "--no-baseline",
                 "--strict-baseline"],
    )
    def test_the_per_analyzer_switches_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["lint", flag])
        assert raised.value.code == 2
