"""ASCII figure rendering for the benchmark harness.

The paper's evaluation is tables *and figures*; the benches regenerate
the figures as ASCII charts appended to their result files, so the
shape (ramps, knees, crossings) is visible without a plotting stack.

Two renderers:

* :func:`line_chart` — one or more (x, y) series on shared axes, with
  optional log-scale x (buffer-size sweeps) — points marked per series;
* :func:`bar_chart` — labelled horizontal bars (ratio comparisons).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

_MARKERS = "*o+x#@"


def _scale(value: float, lo: float, hi: float, cells: int,
           log: bool = False) -> int:
    if log:
        value, lo, hi = math.log10(max(value, 1e-12)), math.log10(
            max(lo, 1e-12)), math.log10(max(hi, 1e-12))
    if hi <= lo:
        return 0
    pos = (value - lo) / (hi - lo)
    return min(cells - 1, max(0, round(pos * (cells - 1))))


def line_chart(series: dict[str, Sequence[tuple[float, float]]],
               log_x: bool = False, title: str = "",
               y_label: str = "", x_label: str = "") -> str:
    """Render named (x, y) series onto one 64 x 16 character grid."""
    width, height = 64, 16
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in pts:
            col = _scale(x, x_lo, x_hi, width, log=log_x)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:.4g}".rjust(10)
    bottom_label = f"{y_lo:.4g}".rjust(10)
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            prefix = top_label
        elif row_idx == height - 1:
            prefix = bottom_label
        elif row_idx == height // 2 and y_label:
            prefix = y_label[:10].rjust(10)
        else:
            prefix = " " * 10
        lines.append(prefix + " |" + "".join(row))
    lines.append(" " * 10 + " +" + "-" * width)
    x_lo_text = f"{x_lo:.4g}"
    x_hi_text = f"{x_hi:.4g}"
    gap = width - len(x_lo_text) - len(x_hi_text)
    lines.append(" " * 12 + x_lo_text + " " * max(1, gap) + x_hi_text
                 + ("  (log x)" if log_x else ""))
    if x_label:
        lines.append(" " * 12 + x_label)
    legend = "   ".join(f"{_MARKERS[i % len(_MARKERS)]} {name}"
                        for i, name in enumerate(series))
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def bar_chart(values: dict[str, float], title: str = "",
              unit: str = "") -> str:
    """Render labelled horizontal bars, the maximum 50 cells long."""
    width = 50
    if not values:
        return "(no data)"
    peak = max(values.values())
    label_width = max(len(name) for name in values)
    lines = [title] if title else []
    for name, value in values.items():
        cells = 0 if peak <= 0 else round(width * value / peak)
        bar = "#" * cells
        lines.append(f"{name.rjust(label_width)} |{bar} "
                     f"{value:.3g}{unit}")
    return "\n".join(lines)
