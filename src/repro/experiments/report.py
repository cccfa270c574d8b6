"""Plain-text reports for the reproduced tables and figures.

The formatting mirrors the paper's tables — data size, processor count,
processor array, measured and predicted times, error — with additional
columns showing the published values for side-by-side comparison.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.ablation import AblationResult
from repro.experiments.figures import FigureResult
from repro.experiments.paper_data import PAPER_ERROR_STATS
from repro.experiments.runner import ValidationTableResult


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
    separator = "  ".join("-" * width for width in widths)
    lines = [fmt(headers), separator]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _optional(value: float | None, fmt: str = "{:.2f}") -> str:
    return fmt.format(value) if value is not None else "-"


def format_validation_table(result: ValidationTableResult,
                            include_paper: bool = True) -> str:
    """Render a reproduced validation table (Tables 1-3 layout)."""
    headers = ["Data Size", "PEs", "Array", "Measured(s)", "Predicted(s)", "Error(%)"]
    if include_paper:
        headers += ["Paper Meas.", "Paper Pred.", "Paper Err(%)"]
    rows = []
    for row in result.rows:
        cells = [
            row.data_size,
            str(row.pes),
            f"{row.px}x{row.py}",
            _optional(row.measured),
            f"{row.predicted:.2f}",
            _optional(row.error_pct, "{:+.2f}"),
        ]
        if include_paper:
            cells += [
                _optional(row.paper_measured),
                _optional(row.paper_predicted),
                _optional(row.paper_error_pct, "{:+.2f}"),
            ]
        rows.append(cells)
    body = _format_table(headers, rows)

    stats = [
        f"max |error| = {result.max_abs_error:.2f}%",
        f"average |error| = {result.average_abs_error:.2f}%",
        f"error variance = {result.error_variance:.2f}",
    ]
    paper_stats = PAPER_ERROR_STATS.get(result.name)
    if include_paper and paper_stats:
        stats.append(
            f"(paper: max < {paper_stats['max_abs_error']:.0f}%, "
            f"average = {paper_stats['average_error']:.2f}%, "
            f"variance = {paper_stats['variance']:.2f})")
    title = f"{result.name} — {result.machine_name}"
    return f"{title}\n{body}\n{'; '.join(stats)}"


def format_figure(result: FigureResult) -> str:
    """Render a speculative-figure reproduction as a table of series."""
    headers = ["Processors"] + [
        f"{series.flop_rate_mflops:.0f} MFLOPS (x{series.rate_factor:g})"
        for series in result.series
    ]
    counts = result.series[0].processor_counts if result.series else []
    rows = []
    for index, count in enumerate(counts):
        cells = [str(count)]
        for series in result.series:
            cells.append(f"{series.times[index]:.3f}")
        rows.append(cells)
    body = _format_table(headers, rows)
    text = f"{result.study.title} ({result.machine_name})\n{body}"
    if counts and max(counts) == result.study.max_processors:
        lo, hi = result.study.expected_range_at_max
        text += (f"\nexpected 'actual' time at {result.study.max_processors} processors "
                 f"(from the published figure): {lo:.1f}-{hi:.1f} s")
    return text


def format_ablation(result: AblationResult) -> str:
    """Render the legacy-vs-coarse benchmarking ablation."""
    lines = [
        "Hardware-layer benchmarking ablation (Section 4)",
        result.describe(),
        f"coarse-approach |error| is {result.improvement_factor:.1f}x smaller "
        "than the legacy opcode approach",
    ]
    return "\n".join(lines)
