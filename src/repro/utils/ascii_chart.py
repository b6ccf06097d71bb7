"""Plain-text line charts for terminal-only reproduction runs.

The paper's Figures 4-6 are time-series plots; with no plotting stack
available we render them as monospace charts so ``python -m repro
figure4 --plot`` can show the *curves*,
not just the summary scalars. One chart overlays several labelled
series; points are bucketed onto a fixed character grid, latest writer
wins within a cell, and a legend maps glyphs to series.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ascii_chart", "sparkline"]

#: Glyphs assigned to series in order.
_GLYPHS = "ox*+#@%&"

Point = Tuple[float, float]

#: Eight block heights, lowest to highest, for sparklines.
_SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Render a series as a one-line block-character sparkline.

    Longer series are squeezed to ``width`` cells by averaging equal
    slices; non-finite values are dropped first. The line is scaled to
    its own min/max (a flat series renders as a run of mid-blocks).

    >>> sparkline([0.0, 1.0, 2.0, 3.0], width=4)
    '▁▃▆█'
    """
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return ""
    if len(finite) > width:
        squeezed = []
        for cell in range(width):
            lo = cell * len(finite) // width
            hi = max(lo + 1, (cell + 1) * len(finite) // width)
            chunk = finite[lo:hi]
            squeezed.append(sum(chunk) / len(chunk))
        finite = squeezed
    v_lo, v_hi = min(finite), max(finite)
    if v_hi == v_lo:
        return _SPARKS[3] * len(finite)
    span = v_hi - v_lo
    top = len(_SPARKS) - 1
    return "".join(_SPARKS[round((v - v_lo) / span * top)] for v in finite)


def _bounds(series: Dict[str, Sequence[Point]],
            y_max: Optional[float]) -> Tuple[float, float, float, float]:
    xs = [p[0] for points in series.values() for p in points]
    ys = [p[1] for points in series.values() for p in points
          if math.isfinite(p[1])]
    if not xs or not ys:
        raise ValueError("chart needs at least one finite point")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_max is not None:
        y_hi = y_max
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    return x_lo, x_hi, y_lo, y_hi


def ascii_chart(series: Dict[str, Sequence[Point]],
                width: int = 64, height: int = 16,
                title: Optional[str] = None,
                y_max: Optional[float] = None) -> str:
    """Render ``{label: [(x, y), ...]}`` as a monospace line chart.

    Non-finite y values are skipped. ``y_max`` optionally clips the
    vertical range (useful when one series has a long tail).
    """
    if width < 8 or height < 4:
        raise ValueError("chart needs width >= 8 and height >= 4")
    if not series:
        raise ValueError("chart needs at least one series")
    x_lo, x_hi, y_lo, y_hi = _bounds(series, y_max)

    grid = [[" "] * width for _ in range(height)]
    for index, (label, points) in enumerate(series.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in points:
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if y > y_hi:
                y = y_hi
            col = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = glyph

    left_labels = [f"{y_hi:.3g}", "", f"{y_lo:.3g}"]
    pad = max(len(label) for label in left_labels)
    lines: List[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = left_labels[0]
        elif row_index == height - 1:
            label = left_labels[2]
        else:
            label = ""
        lines.append(f"{label.rjust(pad)} |{''.join(row)}")
    lines.append(f"{' ' * pad} +{'-' * width}")
    x_axis = f"{x_lo:.3g}".ljust(width - 6) + f"{x_hi:.3g}".rjust(6)
    lines.append(f"{' ' * pad}  {x_axis}")
    legend = "   ".join(f"{_GLYPHS[i % len(_GLYPHS)]} {label}"
                        for i, label in enumerate(series))
    lines.append(f"{' ' * pad}  {legend}")
    return "\n".join(lines)
