"""Plain-text tables for the benchmark reports.

The original paper is a demo paper without numeric tables; each benchmark
nevertheless prints its results as an aligned table (rows = sweep points,
columns = counters) so that EXPERIMENTS.md can quote them directly.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [str(cell).ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(render_row(row))
    return "\n".join(lines)
