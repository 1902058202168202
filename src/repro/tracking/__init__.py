"""Occupant movement tracking and analytics.

The paper's introduction promises more than presence: the system can
"gather information about their movements (thus identifying and
tracking them) inside the building".  This package turns the stream of
per-device room estimates produced by the BMS into that information:

- :class:`OccupantTracker` - debounced room-transition detection;
- :class:`DwellStats` - per-room dwell time and visit statistics;
- :func:`build_movement_graph` - a weighted transition graph
  (plain dicts) for flow analysis.
"""

from repro.tracking.events import RoomTransition
from repro.tracking.tracker import OccupantTracker
from repro.tracking.stats import DwellStats, compute_dwell_stats
from repro.tracking.graph import build_movement_graph, busiest_transitions

__all__ = [
    "RoomTransition",
    "OccupantTracker",
    "DwellStats",
    "compute_dwell_stats",
    "build_movement_graph",
    "busiest_transitions",
]
