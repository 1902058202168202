"""Movement graphs: room-transition flow analysis.

Aggregates confirmed transitions into a weighted directed graph whose
nodes are rooms and whose edge weights are transition counts - the
structure a building manager would query ("which corridors carry the
most traffic?", "which rooms feed the cafeteria at noon?").

The graph is plain dicts: ``graph[from_room][to_room]`` is the edge's
``{"count": int, "devices": set}``, and every room seen at either end
of a transition is a key.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Tuple

from repro.tracking.events import RoomTransition

__all__ = ["build_movement_graph", "busiest_transitions", "reachable_rooms"]

#: room -> successor room -> edge attributes (``count``, ``devices``).
MovementGraph = Dict[str, Dict[str, Dict[str, Any]]]


def build_movement_graph(transitions: Iterable[RoomTransition]) -> MovementGraph:
    """A directed graph with per-edge ``count`` and ``devices`` attrs."""
    graph: MovementGraph = {}
    for t in transitions:
        edge = graph.setdefault(t.from_room, {}).setdefault(
            t.to_room, {"count": 0, "devices": set()}
        )
        edge["count"] += 1
        edge["devices"].add(t.device_id)
        graph.setdefault(t.to_room, {})
    return graph


def busiest_transitions(
    graph: MovementGraph, top: int = 5
) -> List[Tuple[str, str, int]]:
    """The ``top`` most-travelled room pairs as (from, to, count)."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    edges = [
        (u, v, data["count"]) for u, out in graph.items() for v, data in out.items()
    ]
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges[:top]


def reachable_rooms(graph: MovementGraph, start: str) -> List[str]:
    """Rooms reachable from ``start`` through observed transitions
    (``start`` itself excluded).

    Raises:
        KeyError: ``start`` never appears in the graph.
    """
    if start not in graph:
        raise KeyError(f"room {start!r} has no observed transitions")
    seen = {start}
    queue = deque([start])
    while queue:
        for room in graph[queue.popleft()]:
            if room not in seen:
                seen.add(room)
                queue.append(room)
    seen.discard(start)
    return sorted(seen)
