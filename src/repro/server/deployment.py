"""Deployment management: registering and validating the beacon fleet.

The operational side a real adopter needs (Section IV's setup phase):
register transmitter boards with the BMS, check that every room is
instrumented and radio-covered, and propose placements for rooms that
are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.building.coverage import analyse_coverage
from repro.building.floorplan import BeaconPlacement, FloorPlan
from repro.building.geometry import Point

__all__ = ["DeploymentIssue", "DeploymentReport", "DeploymentManager"]


@dataclass(frozen=True)
class DeploymentIssue:
    """One problem found by validation.

    Attributes:
        severity: ``"error"`` (breaks detection) or ``"warning"``.
        room: affected room, or ``"*"`` for plan-wide issues.
        message: human-readable description.
    """

    severity: str
    room: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.room}: {self.message}"


@dataclass(frozen=True)
class DeploymentReport:
    """Validation outcome.

    Attributes:
        issues: problems found (empty = deployable).
        coverage_fraction: in-room area above sensitivity.
        room_coverage: per-room covered fraction.
        suggestions: room -> proposed beacon position for uncovered
            rooms.
    """

    issues: List[DeploymentIssue]
    coverage_fraction: float
    room_coverage: Dict[str, float]
    suggestions: Dict[str, Point]

    @property
    def ok(self) -> bool:
        """True when no error-severity issues were found."""
        return not any(i.severity == "error" for i in self.issues)


class DeploymentManager:
    """Registers beacon boards and validates the deployment.

    Args:
        plan: the floor plan being instrumented (beacons may be added
            through :meth:`register`).
    """

    def __init__(self, plan: FloorPlan) -> None:
        self.plan = plan
        self.registered: List[str] = []

    def register(self, placement: BeaconPlacement) -> str:
        """Install a board's placement into the plan.

        Returns:
            The beacon id registered.

        Raises:
            ValueError: duplicate identity or unknown room (from the
                plan's own validation).
        """
        self.plan.add_beacon(placement)
        self.registered.append(placement.beacon_id)
        return placement.beacon_id

    def validate(
        self,
        *,
        resolution_m: float = 0.5,
        sensitivity_dbm: float = -94.0,
        margin_db: float = 6.0,
        min_room_coverage: float = 0.95,
    ) -> DeploymentReport:
        """Check instrumentation and radio coverage.

        Issues raised:

        - error: a room with no beacon assigned to it;
        - error: duplicate proximity UUID mismatches (beacons that do
          not share the building region);
        - warning: a room whose covered fraction (with ``margin_db``
          fade margin) is below ``min_room_coverage``.
        """
        issues: List[DeploymentIssue] = []
        rooms_with_beacons = {b.room for b in self.plan.beacons}
        for room in self.plan.room_names:
            if room not in rooms_with_beacons:
                issues.append(
                    DeploymentIssue(
                        "error", room, "no beacon assigned to this room"
                    )
                )
        uuids = {b.packet.uuid for b in self.plan.beacons}
        if len(uuids) > 1:
            issues.append(
                DeploymentIssue(
                    "error",
                    "*",
                    f"beacons use {len(uuids)} different proximity UUIDs; "
                    "the app monitors a single region UUID",
                )
            )

        if self.plan.beacons:
            grid = analyse_coverage(
                self.plan,
                resolution_m=resolution_m,
                sensitivity_dbm=sensitivity_dbm,
                margin_db=margin_db,
            )
            coverage = grid.coverage_fraction(self.plan)
            room_coverage = grid.room_coverage(self.plan)
        else:
            coverage = 0.0
            room_coverage = {room: 0.0 for room in self.plan.room_names}

        suggestions: Dict[str, Point] = {}
        for room, fraction in sorted(room_coverage.items()):
            if fraction < min_room_coverage:
                issues.append(
                    DeploymentIssue(
                        "warning",
                        room,
                        f"only {fraction:.0%} covered at "
                        f"{sensitivity_dbm:.0f} dBm with {margin_db:.0f} dB margin",
                    )
                )
                suggestions[room] = self.plan.room(room).centre
        for room in self.plan.room_names:
            if room not in rooms_with_beacons and room not in suggestions:
                suggestions[room] = self.plan.room(room).centre
        return DeploymentReport(
            issues=issues,
            coverage_fraction=coverage,
            room_coverage=room_coverage,
            suggestions=suggestions,
        )
