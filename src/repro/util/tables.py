"""ASCII tables and CSV export for the benchmark harness.

The benches print the paper's tables and figure series as text (no
plotting dependencies offline); :func:`ascii_table` keeps the output
aligned and :func:`write_csv` dumps the raw series for external
plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
) -> str:
    """Render rows as a boxed, right-aligned ASCII table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row with {len(row)} cells does not match {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    sep = "+".join("-" * (w + 2) for w in widths)
    sep = f"+{sep}+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(
        "|" + "|".join(f" {h:>{w}} " for h, w in zip(headers, widths)) + "|"
    )
    lines.append(sep)
    for row in str_rows:
        lines.append(
            "|" + "|".join(f" {c:>{w}} " for c, w in zip(row, widths)) + "|"
        )
    lines.append(sep)
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def write_csv(path: str | Path, headers: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a series to CSV; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return path


def ascii_series_plot(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    title: str | None = None,
) -> str:
    """A minimal ASCII scatter of several series (Fig. 8 style)."""
    all_ys = [y for ys in series.values() for y in ys]
    if not all_ys or not xs:
        return "(no data)"
    y_min, y_max = min(all_ys), max(all_ys)
    x_min, x_max = min(xs), max(xs)
    y_span = (y_max - y_min) or 1.0
    x_span = (x_max - x_min) or 1.0
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    markers = "ox+*#@"
    for index, (name, ys) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            col = int((x - x_min) / x_span * width)
            row = height - int((y - y_min) / y_span * height)
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: [{y_min:.3g}, {y_max:.3g}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * (width + 1))
    lines.append(f"x: [{x_min:.3g}, {x_max:.3g}]")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)
