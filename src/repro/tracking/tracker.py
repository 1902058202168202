"""Debounced room-transition tracking.

Raw BMS estimates flicker (a single misclassified scan cycle would
otherwise read as two spurious transitions), so the tracker requires
``confirm_cycles`` consecutive estimates of a *new* room before
accepting the move - the temporal analogue of the paper's two-loss
filter rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.tracking.events import RoomTransition

__all__ = ["OccupantTracker"]


@dataclass
class _DeviceState:
    room: Optional[str] = None
    candidate: Optional[str] = None
    candidate_count: int = 0
    candidate_since: float = 0.0


class OccupantTracker:
    """Turns per-cycle room estimates into confirmed transitions.

    Args:
        confirm_cycles: consecutive estimates of the same new room
            required to confirm a transition (>= 1; 1 disables
            debouncing).

    Example:
        >>> tracker = OccupantTracker(confirm_cycles=2)
        >>> tracker.observe(0.0, "alice", "kitchen")   # initial fix
        >>> tracker.observe(2.0, "alice", "living")    # candidate...
        >>> confirmed = tracker.observe(4.0, "alice", "living")
        >>> str(confirmed)
        'alice: kitchen -> living @ 2.0s'
    """

    def __init__(self, confirm_cycles: int = 2) -> None:
        if confirm_cycles < 1:
            raise ValueError(f"confirm_cycles must be >= 1, got {confirm_cycles}")
        self.confirm_cycles = int(confirm_cycles)
        self.transitions: List[RoomTransition] = []
        self._devices: Dict[str, _DeviceState] = {}

    def observe(self, time: float, device_id: str, room: str) -> Optional[RoomTransition]:
        """Fold in one cycle's estimate for one device.

        Returns:
            The confirmed :class:`RoomTransition` if this observation
            completed one, else ``None``.
        """
        state = self._devices.setdefault(device_id, _DeviceState())
        if state.room is None:
            # First fix: no transition, just anchor the device.
            state.room = room
            return None
        if room == state.room:
            # Back to (or still in) the current room: drop candidates.
            state.candidate = None
            state.candidate_count = 0
            return None
        if room != state.candidate:
            state.candidate = room
            state.candidate_count = 1
            state.candidate_since = time
        else:
            state.candidate_count += 1
        if state.candidate_count < self.confirm_cycles:
            return None
        transition = RoomTransition(
            time=state.candidate_since,
            device_id=device_id,
            from_room=state.room,
            to_room=room,
        )
        state.room = room
        state.candidate = None
        state.candidate_count = 0
        self.transitions.append(transition)
        return transition

    def current_room(self, device_id: str) -> Optional[str]:
        """The device's confirmed room, or ``None`` before any fix."""
        state = self._devices.get(device_id)
        return state.room if state is not None else None

    def journey(self, device_id: str) -> List[RoomTransition]:
        """All confirmed transitions of one device, in order."""
        return [t for t in self.transitions if t.device_id == device_id]

    @classmethod
    def from_predictions(
        cls, predictions: Dict[str, list], *, confirm_cycles: int = 2,
        use_truth: bool = False,
    ) -> "OccupantTracker":
        """Build a tracker from a DetectionRun's prediction record.

        Args:
            predictions: ``device -> [(time, truth, estimate), ...]``
                as produced by
                :class:`repro.core.system.DetectionRun`.
            confirm_cycles: debounce depth.
            use_truth: track ground-truth rooms instead of estimates
                (for evaluating the tracking itself).
        """
        tracker = cls(confirm_cycles=confirm_cycles)
        for device_id, rows in predictions.items():
            for time, truth, estimate in rows:
                tracker.observe(time, device_id, truth if use_truth else estimate)
        return tracker
