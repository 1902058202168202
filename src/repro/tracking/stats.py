"""Dwell-time and visit statistics from room estimate streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

__all__ = ["DwellStats", "compute_dwell_stats"]


@dataclass
class DwellStats:
    """Per-room dwell statistics for one device.

    Attributes:
        device_id: whose statistics these are.
        total_time_s: room -> total seconds spent.
        visits: room -> number of distinct stays.
    """

    device_id: str
    total_time_s: Dict[str, float] = field(default_factory=dict)
    visits: Dict[str, int] = field(default_factory=dict)

    def mean_dwell_s(self, room: str) -> float:
        """Average stay length in ``room`` (0 when never visited)."""
        n = self.visits.get(room, 0)
        if n == 0:
            return 0.0
        return self.total_time_s.get(room, 0.0) / n

    def most_occupied(self) -> str:
        """Room with the largest total dwell time.

        Raises:
            ValueError: no observations.
        """
        if not self.total_time_s:
            raise ValueError(f"no dwell data for {self.device_id}")
        return max(self.total_time_s, key=self.total_time_s.get)

    def occupancy_fraction(self, room: str) -> float:
        """Share of the observed span spent in ``room``."""
        total = sum(self.total_time_s.values())
        if total <= 0.0:
            return 0.0
        return self.total_time_s.get(room, 0.0) / total


def compute_dwell_stats(
    device_id: str, series: Sequence[Tuple[float, str]]
) -> DwellStats:
    """Dwell statistics from a time-ordered ``(time, room)`` series.

    Each sample extends the current stay until the next sample's time;
    the final sample contributes no duration (open-ended).

    Raises:
        ValueError: series not time-ordered.
    """
    stats = DwellStats(device_id=device_id)
    previous_time = None
    previous_room = None
    current_stay_room = None
    for time, room in series:
        if previous_time is not None and time < previous_time:
            raise ValueError(
                f"series not time-ordered: {time} after {previous_time}"
            )
        if previous_room is not None:
            duration = time - previous_time
            stats.total_time_s[previous_room] = (
                stats.total_time_s.get(previous_room, 0.0) + duration
            )
        if room != current_stay_room:
            stats.visits[room] = stats.visits.get(room, 0) + 1
            current_stay_room = room
        previous_time, previous_room = time, room
    return stats
