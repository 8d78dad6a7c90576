"""Plain-text report formatting for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
show; these helpers keep the formatting consistent.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.api import SystemComparison


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with a separator line."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3g}"
    return str(cell)


def format_comparison(comparison: SystemComparison, title: str = "") -> str:
    """One row per system: GPUs, iteration time, MFU, throughput."""
    rows: List[List[object]] = []
    for system, result in comparison.results.items():
        rows.append(
            [
                system,
                result.num_gpus,
                f"{result.iteration_time:.2f}",
                f"{result.mfu * 100:.1f}%",
                f"{result.throughput_tokens_per_s / 1e3:.0f}K",
            ]
        )
    return format_table(
        ["system", "gpus", "iter (s)", "MFU", "tokens/s"],
        rows,
        title=title,
    )
