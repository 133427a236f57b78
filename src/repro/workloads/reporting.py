"""Rendering and exporting benchmark results.

The benchmark harness returns structured
:class:`~repro.workloads.benchmark.BenchmarkResult` objects; this module
turns them into the artefacts an experimenter actually wants: aligned text
tables for the console, Markdown tables for reports, and CSV files of the
per-query series for plotting.
"""

from __future__ import annotations

import csv
import io

from repro.cost.model import CostModel, DEFAULT_MAIN_MEMORY_MODEL
from repro.workloads.benchmark import BenchmarkResult


_SUMMARY_COLUMNS = [
    ("strategy", "strategy"),
    ("first_query_overhead_vs_scan", "first-query/scan"),
    ("convergence_query", "converged@"),
    ("total_logical_cost", "total cost"),
    ("total_seconds", "seconds"),
    ("auxiliary_bytes", "aux bytes"),
    ("robustness_max_over_median", "max/median"),
]


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


def render_text_table(result: BenchmarkResult) -> str:
    """Fixed-width text table of the benchmark summary."""
    rows = result.summary_table()
    widths = {}
    for key, title in _SUMMARY_COLUMNS:
        widths[key] = max(
            len(title), *(len(_format_value(row[key])) for row in rows)
        ) if rows else len(title)
    header = "  ".join(title.rjust(widths[key]) for key, title in _SUMMARY_COLUMNS)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(
                _format_value(row[key]).rjust(widths[key])
                for key, _ in _SUMMARY_COLUMNS
            )
        )
    return "\n".join(lines)


def render_markdown_table(result: BenchmarkResult) -> str:
    """GitHub-flavoured Markdown table of the benchmark summary."""
    rows = result.summary_table()
    titles = [title for _, title in _SUMMARY_COLUMNS]
    lines = [
        "| " + " | ".join(titles) + " |",
        "|" + "|".join(["---"] * len(titles)) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(_format_value(row[key]) for key, _ in _SUMMARY_COLUMNS)
            + " |"
        )
    return "\n".join(lines)


def per_query_series_csv(
    result: BenchmarkResult,
    cumulative: bool = False,
    model: CostModel = DEFAULT_MAIN_MEMORY_MODEL,
) -> str:
    """CSV text of the per-query (or cumulative) cost series, one column per strategy."""
    series = {
        name: (run.statistics.cumulative_cost(model) if cumulative
               else run.statistics.per_query_cost(model))
        for name, run in result.runs.items()
    }
    names = sorted(series)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["query"] + names)
    length = min(len(values) for values in series.values()) if names else 0
    for index in range(length):
        writer.writerow([index] + [f"{series[name][index]:.1f}" for name in names])
    return buffer.getvalue()


def write_csv(path: str, result: BenchmarkResult, cumulative: bool = False) -> None:
    """Write the per-query series CSV to ``path``."""
    with open(path, "w", newline="") as handle:
        handle.write(per_query_series_csv(result, cumulative=cumulative))


def summary_csv(result: BenchmarkResult) -> str:
    """CSV text of the summary table."""
    rows = result.summary_table()
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([key for key, _ in _SUMMARY_COLUMNS])
    for row in rows:
        writer.writerow([_format_value(row[key]) for key, _ in _SUMMARY_COLUMNS])
    return buffer.getvalue()
