"""Unit tests for benchmark result reporting."""

import csv
import io

import numpy as np
import pytest

from repro.workloads.benchmark import AdaptiveIndexingBenchmark
from repro.workloads.generators import WorkloadSpec, random_workload
from repro.workloads.reporting import (
    per_query_series_csv,
    render_markdown_table,
    render_text_table,
    summary_csv,
    write_csv,
)


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 10_000, size=5_000)
    spec = WorkloadSpec(domain_low=0, domain_high=10_000, query_count=40,
                        selectivity=0.02, seed=1)
    harness = AdaptiveIndexingBenchmark(values, random_workload(spec))
    return harness.run(["scan", "cracking"])


class TestTables:
    def test_text_table_contains_all_strategies(self, result):
        table = render_text_table(result)
        assert "scan" in table and "cracking" in table
        assert "first-query/scan" in table
        # aligned: every line has the same width as the header
        lines = table.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_markdown_table_shape(self, result):
        table = render_markdown_table(result)
        lines = table.splitlines()
        assert lines[0].startswith("| strategy")
        assert set(lines[1].replace("|", "")) <= {"-", " "}
        assert len(lines) == 2 + len(result.runs)

    def test_none_rendered_as_dash(self, result):
        # the scan strategy never converges -> its convergence cell is "-"
        table = render_markdown_table(result)
        scan_line = next(line for line in table.splitlines() if "| scan" in line)
        assert "| - |" in scan_line or "| - " in scan_line


class TestCsv:
    def test_summary_csv_parses(self, result):
        rows = list(csv.reader(io.StringIO(summary_csv(result))))
        assert rows[0][0] == "strategy"
        assert len(rows) == 1 + len(result.runs)

    def test_per_query_series_csv(self, result):
        rows = list(csv.reader(io.StringIO(per_query_series_csv(result))))
        assert rows[0] == ["query", "cracking", "scan"]
        assert len(rows) == 1 + result.query_count
        # cumulative variant is monotone per column
        cumulative_rows = list(
            csv.reader(io.StringIO(per_query_series_csv(result, cumulative=True)))
        )
        cracking = [float(row[1]) for row in cumulative_rows[1:]]
        assert all(b >= a for a, b in zip(cracking, cracking[1:]))

    def test_write_csv(self, result, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(str(path), result)
        assert path.exists()
        assert path.read_text().startswith("query,")
