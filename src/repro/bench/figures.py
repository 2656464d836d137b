"""Dependency-free ASCII rendering of the paper's figure series.

The benchmark harness prints tabular series; for quick visual inspection in a
terminal (or a CI log) it is often easier to see the *shape* of a curve.  This
module renders one or more ``(x, y)`` series as an ASCII line chart — no
matplotlib required, which keeps the library's dependency footprint at numpy
only.

Example::

    from repro.bench.figures import ascii_chart

    print(ascii_chart(
        {"EaSyIM": [(0, 0), (50, 900), (100, 1500)],
         "TIM+":   [(0, 0), (50, 930), (100, 1540)]},
        title="Spread vs #seeds", width=60, height=12,
    ))
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.exceptions import ConfigurationError

Point = Tuple[float, float]

#: Glyphs assigned to successive series.
_MARKERS = "o*x+#@%&"


def series_from_evaluations(
    evaluations: Mapping[str, Mapping[int, float]],
) -> Dict[str, List[Point]]:
    """Convert labelled ``{k: value}`` sweeps into :func:`ascii_chart` points."""
    return {
        label: [(float(k), float(value)) for k, value in curve.items()]
        for label, curve in evaluations.items()
    }


def ascii_chart(
    series: Mapping[str, Sequence[Point]],
    title: str = "",
    width: int = 60,
    height: int = 15,
    x_label: str = "k",
    y_label: str = "value",
) -> str:
    """Render labelled ``(x, y)`` series as an ASCII line chart.

    Parameters
    ----------
    series:
        Mapping from series label to a sequence of ``(x, y)`` points.
    width, height:
        Plot-area size in characters (axes and legend are added around it).
    """
    if width < 10 or height < 4:
        raise ConfigurationError("width must be >= 10 and height >= 4")
    all_points = [point for points in series.values() for point in points]
    if not all_points:
        return f"{title}\n(no data)" if title else "(no data)"

    x_values = [p[0] for p in all_points]
    y_values = [p[1] for p in all_points]
    x_min, x_max = min(x_values), max(x_values)
    y_min, y_max = min(y_values), max(y_values)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def column(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def row(y: float) -> int:
        return int(round((y - y_min) / (y_max - y_min) * (height - 1)))

    grid = [[" "] * width for _ in range(height)]
    legend: List[str] = []
    for index, (label, points) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"{marker} {label}")
        ordered = sorted(points, key=lambda p: p[0])
        # Draw straight segments between consecutive points.
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
            steps = max(abs(column(x1) - column(x0)), 1)
            for step in range(steps + 1):
                fraction = step / steps
                x = x0 + (x1 - x0) * fraction
                y = y0 + (y1 - y0) * fraction
                grid[height - 1 - row(y)][column(x)] = marker
        for x, y in ordered:
            grid[height - 1 - row(y)][column(x)] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = _format_tick(y_max)
    bottom_label = _format_tick(y_min)
    gutter = max(len(top_label), len(bottom_label)) + 1
    for r, grid_row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(gutter - 1) + "|"
        elif r == height - 1:
            prefix = bottom_label.rjust(gutter - 1) + "|"
        else:
            prefix = " " * (gutter - 1) + "|"
        lines.append(prefix + "".join(grid_row))
    axis = " " * (gutter - 1) + "+" + "-" * width
    lines.append(axis)
    x_axis_labels = (
        " " * gutter + _format_tick(x_min)
        + _format_tick(x_max).rjust(width - len(_format_tick(x_min)))
    )
    lines.append(x_axis_labels)
    lines.append(" " * gutter + f"{x_label} →   ({y_label} ↑)")
    lines.append("legend: " + "   ".join(legend))
    return "\n".join(lines)


def _format_tick(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:.3g}"
    return f"{value:.2f}"
