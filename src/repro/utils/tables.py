"""Plain-text table rendering for experiment reports.

The report commands print the same rows the paper's tables report;
this module does the column alignment so every experiment renders
consistently without pulling in a formatting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table"]


def _cell(value: object, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None,
                 float_format: str = ".4g") -> str:
    """Render rows as an aligned monospace table.

    ``None`` cells render as ``-``; floats use ``float_format``.
    """
    header_cells = [str(h) for h in headers]
    body = [[_cell(v, float_format) for v in row] for row in rows]
    for row in body:
        if len(row) != len(header_cells):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(header_cells)}")
    widths = [len(h) for h in header_cells]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: List[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(header_cells))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt_row(row) for row in body)
    return "\n".join(lines)
