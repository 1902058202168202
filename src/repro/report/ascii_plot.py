"""Minimal ASCII chart primitives (no plotting dependencies offline)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["ascii_time_series", "ascii_bar_chart"]


def ascii_time_series(
    series: Dict[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 72,
    height: int = 16,
    title: str = "",
    y_label: str = "",
    x_label: str = "time (s)",
) -> str:
    """Render one or more ``(x, y)`` series as an ASCII scatter plot.

    Each series gets its own marker character (``*``, ``o``, ``+``,
    ``x``, ...), assigned in insertion order.

    Args:
        series: name -> list of points; all series share the axes.
        width: plot area width in characters.
        height: plot area height in characters.
        title: optional heading line.
        y_label: y-axis annotation.
        x_label: x-axis annotation.

    Raises:
        ValueError: no data points at all.
    """
    markers = "*o+x#@%&"
    points = [(name, pts) for name, pts in series.items() if pts]
    if not points:
        raise ValueError("no data to plot")
    xs = [x for _, pts in points for x, _ in pts]
    ys = [y for _, pts in points for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(points):
        marker = markers[index % len(markers)]
        for x, y in pts:
            col = int((x - x_min) / x_span * (width - 1))
            row = int((y - y_min) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_max:8.2f} |"
    bottom_label = f"{y_min:8.2f} |"
    mid_pad = " " * 8 + " |"
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label
        elif row_index == height - 1:
            prefix = bottom_label
        else:
            prefix = mid_pad
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(
        " " * 10 + f"{x_min:<12.1f}{x_label:^{max(width - 24, 4)}}{x_max:>12.1f}"
    )
    if y_label:
        lines.append(f"  y: {y_label}")
    if len(points) > 1:
        legend = "  ".join(
            f"{markers[i % len(markers)]} {name}" for i, (name, _) in enumerate(points)
        )
        lines.append("  legend: " + legend)
    return "\n".join(lines)


def ascii_bar_chart(
    values: Dict[str, float],
    *,
    width: int = 50,
    title: str = "",
    unit: str = "",
    sort: bool = False,
) -> str:
    """Render labelled values as horizontal bars.

    Args:
        values: label -> value (non-negative).
        width: maximum bar width in characters.
        title: optional heading line.
        unit: suffix printed after each value.
        sort: sort bars descending by value.

    Raises:
        ValueError: empty input or negative values.
    """
    if not values:
        raise ValueError("no bars to draw")
    if any(v < 0 for v in values.values()):
        raise ValueError("bar values must be non-negative")
    items = list(values.items())
    if sort:
        items.sort(key=lambda kv: -kv[1])
    peak = max(v for _, v in items) or 1.0
    label_width = max(len(k) for k, _ in items)
    lines = [title] if title else []
    for label, value in items:
        bar = "#" * max(1 if value > 0 else 0, int(value / peak * width))
        lines.append(f"{label:<{label_width}} | {bar} {value:g}{unit}")
    return "\n".join(lines)
