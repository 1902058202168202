"""ASCII floor-plan rendering.

Draws a plan as a character grid - rooms as letter fields, beacons as
``B``, arbitrary markers (occupants, suggestions) as caller-chosen
characters - so examples and the CLI can show *where* things are, not
just name rooms.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.building.floorplan import FloorPlan
from repro.building.geometry import Point

__all__ = ["render_plan"]


def render_plan(
    plan: FloorPlan,
    *,
    markers: Optional[Mapping[str, Point]] = None,
    cell_m: float = 0.5,
    show_legend: bool = True,
) -> str:
    """Render a floor plan as ASCII.

    Rooms are filled with their initial letter (lower case); beacons
    appear as ``B``; ``markers`` (e.g. occupant positions) are drawn
    with the first character of their name, upper-cased.  Cells
    outside every room are blank.

    Args:
        plan: the floor plan.
        markers: name -> position overlays.
        cell_m: metres per character cell.
        show_legend: append the room-letter legend.

    Raises:
        ValueError: non-positive cell size.
    """
    if cell_m <= 0.0:
        raise ValueError(f"cell size must be positive, got {cell_m}")
    x_min, y_min, x_max, y_max = plan.bounds()
    cols = max(1, int((x_max - x_min) / cell_m))
    rows = max(1, int((y_max - y_min) / cell_m))

    # Assign a distinct letter per room (initial, disambiguated).
    letters: Dict[str, str] = {}
    used = set()
    for room in plan.room_names:
        for ch in room.lower() + "abcdefghijklmnopqrstuvwxyz":
            if ch.isalpha() and ch not in used:
                letters[room] = ch
                used.add(ch)
                break

    grid = [[" "] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            x = x_min + (j + 0.5) * cell_m
            y = y_min + (i + 0.5) * cell_m
            room = plan.room_at(Point(x, y))
            if room != "outside":
                grid[i][j] = letters[room]

    def place(point: Point, char: str) -> None:
        j = int((point.x - x_min) / cell_m)
        i = int((point.y - y_min) / cell_m)
        if 0 <= i < rows and 0 <= j < cols:
            grid[i][j] = char

    for beacon in plan.beacons:
        place(beacon.position, "B")
    if markers:
        for name, point in markers.items():
            place(point, (name[:1] or "?").upper())

    border = "+" + "-" * cols + "+"
    lines = [border]
    # Row 0 is the bottom of the building: print top-down.
    for row in reversed(grid):
        lines.append("|" + "".join(row) + "|")
    lines.append(border)
    if show_legend:
        legend = "  ".join(f"{letters[r]}={r}" for r in plan.room_names)
        lines.append(f"legend: {legend}  B=beacon")
        if markers:
            lines.append(
                "markers: " + "  ".join(
                    f"{(n[:1] or '?').upper()}={n}" for n in markers
                )
            )
    return "\n".join(lines)
