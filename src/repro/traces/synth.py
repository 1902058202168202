"""Synthetic trace generators.

Each generator drives the full simulated stack (building -> channel ->
advertisers -> platform scanner -> paper filter) and emits a
:class:`~repro.traces.schema.BeaconTrace` with ground truth attached.
These stand in for the field data the authors collected by hand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ble.air import AirInterface
from repro.ble.scanner_params import ScanSettings
from repro.building.floorplan import FloorPlan
from repro.building.geometry import Point
from repro.building.mobility import (
    MobilityModel,
    RandomWaypoint,
    StaticPosition,
    WaypointPath,
)
from repro.filters.tracker import BeaconTracker, paper_filter_bank
from repro.phone.scanner import AndroidScanner, IosScanner, Scanner
from repro.radio.channel import ChannelModel
from repro.radio.pathloss import distance_from_rssi
from repro.sim.rng import derive_seed
from repro.traces.schema import BeaconTrace, TraceMeta, TraceRecord

__all__ = [
    "synthesize_static_trace",
    "synthesize_walk_trace",
    "synthesize_calibration_trace",
    "synthesize_survey_trace",
    "run_trace",
]


def run_trace(
    plan: FloorPlan,
    mobility: MobilityModel,
    *,
    scenario: str,
    duration_s: float,
    scan_period_s: float = 2.0,
    device: str = "s3_mini",
    platform: str = "android",
    seed: int = 0,
    device_id: str = "trace-device",
    tracker: Optional[BeaconTracker] = None,
    channel: Optional[ChannelModel] = None,
    path_loss_exponent: float = 2.2,
    notes: str = "",
) -> BeaconTrace:
    """Drive one phone along ``mobility`` and record every cycle.

    Records carry the raw per-cycle RSSI (mean of surfaced samples per
    beacon), the filtered distance estimates, and ground truth.

    Args:
        plan: building with installed beacons.
        mobility: the carrier's trajectory.
        scenario: label stored in the trace metadata.
        duration_s: trace length.
        scan_period_s: scan cycle length (paper contrasts 2 s vs 5 s).
        device: handset radio profile name.
        platform: ``"android"`` or ``"ios"``.
        seed: master seed (channel + scanner draws).
        device_id: reported device identity.
        tracker: filter bank; defaults to the paper's configuration.
        channel: channel model; defaults to the standard indoor model
            seeded from ``seed``.
        path_loss_exponent: ranging inversion exponent.
        notes: free-form metadata note.
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    channel = (
        channel
        if channel is not None
        else ChannelModel(seed=derive_seed(seed, "channel"))
    )
    air = AirInterface(plan, channel)
    scanner_cls = {"android": AndroidScanner, "ios": IosScanner}.get(platform)
    if scanner_cls is None:
        raise ValueError(f"platform must be 'android' or 'ios', got {platform!r}")
    scanner: Scanner = scanner_cls(
        air,
        device=device,
        settings=ScanSettings(scan_period_s=scan_period_s),
        rng=np.random.default_rng(derive_seed(seed, "scanner")),
    )
    tracker = tracker if tracker is not None else paper_filter_bank()
    trace = BeaconTrace(
        meta=TraceMeta(
            scenario=scenario,
            device=device,
            scan_period_s=scan_period_s,
            seed=seed,
            notes=notes,
        )
    )
    n_cycles = int(duration_s / scan_period_s)
    for k in range(n_cycles):
        t0 = k * scan_period_s
        cycle = scanner.scan_cycle(mobility, t0)
        raw_rssi: Dict[str, float] = {
            b: cycle.mean_rssi(b) for b in cycle.beacon_ids
        }
        estimates = tracker.update(raw_rssi)
        distances = {
            b: float(
                distance_from_rssi(
                    est.value,
                    float(plan.beacon(b).packet.tx_power),
                    path_loss_exponent,
                )
            )
            for b, est in estimates.items()
        }
        position = mobility.position_at(cycle.t_end)
        trace.append(
            TraceRecord(
                time=cycle.t_end,
                device_id=device_id,
                rssi=raw_rssi,
                distance=distances,
                true_room=plan.room_at(position),
                true_position=position.as_tuple(),
            )
        )
    return trace


def synthesize_static_trace(
    plan: FloorPlan,
    position: Point,
    *,
    duration_s: float = 120.0,
    scan_period_s: float = 2.0,
    device: str = "s3_mini",
    platform: str = "android",
    seed: int = 0,
    **kwargs,
) -> BeaconTrace:
    """A device standing still (the Figure 4/6 static tests)."""
    return run_trace(
        plan,
        StaticPosition(position),
        scenario="static",
        duration_s=duration_s,
        scan_period_s=scan_period_s,
        device=device,
        platform=platform,
        seed=seed,
        **kwargs,
    )


def synthesize_walk_trace(
    plan: FloorPlan,
    waypoints: Sequence[Point],
    *,
    speed_mps: float = 1.2,
    duration_s: Optional[float] = None,
    scan_period_s: float = 2.0,
    device: str = "s3_mini",
    platform: str = "android",
    seed: int = 0,
    **kwargs,
) -> BeaconTrace:
    """A scripted walk (the Figures 7-8 dynamic tests).

    ``duration_s`` defaults to the walk time plus a 10 s settle at the
    destination.
    """
    path = WaypointPath(list(waypoints), speed_mps=speed_mps)
    if duration_s is None:
        duration_s = path.end_time + 10.0
    return run_trace(
        plan,
        path,
        scenario="walk",
        duration_s=duration_s,
        scan_period_s=scan_period_s,
        device=device,
        platform=platform,
        seed=seed,
        **kwargs,
    )


def _append_retimed(trace: BeaconTrace, sub: BeaconTrace) -> None:
    """Append ``sub``'s records to ``trace`` shifted to follow it."""
    offset = trace.records[-1].time if trace.records else 0.0
    for r in sub.records:
        trace.append(
            TraceRecord(
                time=offset + r.time,
                device_id=r.device_id,
                rssi=r.rssi,
                distance=r.distance,
                true_room=r.true_room,
                true_position=r.true_position,
            )
        )


def synthesize_survey_trace(
    plan: FloorPlan,
    *,
    points_per_room: int = 6,
    dwell_s: float = 24.0,
    outside_points: int = 4,
    scan_period_s: float = 2.0,
    device: str = "s3_mini",
    platform: str = "android",
    seed: int = 0,
    margin_m: float = 0.4,
    **kwargs,
) -> BeaconTrace:
    """A fingerprint survey: dwell at sampled points in every room.

    This is the standard site-survey protocol (and the natural reading
    of the paper's "operator that walks around the building collecting
    samples"): the operator stands at ``points_per_room`` positions in
    each room for ``dwell_s`` seconds each, then at ``outside_points``
    positions just outside the building.  The filter bank restarts at
    each position (a fresh collection), so fingerprints are not
    blurred across room boundaries.
    """
    if points_per_room < 1:
        raise ValueError(f"points_per_room must be >= 1, got {points_per_room}")
    if dwell_s < scan_period_s:
        raise ValueError(
            f"dwell ({dwell_s}s) must cover at least one scan period "
            f"({scan_period_s}s)"
        )
    rng = np.random.default_rng(derive_seed(seed, "survey-points"))
    trace = BeaconTrace(
        meta=TraceMeta(
            scenario="survey",
            device=device,
            scan_period_s=scan_period_s,
            seed=seed,
            notes=f"{points_per_room} pts/room, {dwell_s}s dwell",
        )
    )
    positions: List[tuple] = []
    for room in plan.rooms:
        mx = min(margin_m, (room.x_max - room.x_min) / 4.0)
        my = min(margin_m, (room.y_max - room.y_min) / 4.0)
        for _ in range(points_per_room):
            positions.append(
                (
                    Point(
                        float(rng.uniform(room.x_min + mx, room.x_max - mx)),
                        float(rng.uniform(room.y_min + my, room.y_max - my)),
                    ),
                    room.name,
                )
            )
    if outside_points > 0:
        x_min, y_min, x_max, y_max = plan.bounds()
        for _ in range(outside_points):
            side = rng.integers(4)
            if side == 0:
                p = Point(x_max + float(rng.uniform(1.5, 5.0)),
                          float(rng.uniform(y_min, y_max)))
            elif side == 1:
                p = Point(x_min - float(rng.uniform(1.5, 5.0)),
                          float(rng.uniform(y_min, y_max)))
            elif side == 2:
                p = Point(float(rng.uniform(x_min, x_max)),
                          y_max + float(rng.uniform(1.5, 5.0)))
            else:
                p = Point(float(rng.uniform(x_min, x_max)),
                          y_min - float(rng.uniform(1.5, 5.0)))
            positions.append((p, "outside"))
    for i, (point, _room) in enumerate(positions):
        sub = run_trace(
            plan,
            StaticPosition(point),
            scenario="survey-point",
            duration_s=dwell_s,
            scan_period_s=scan_period_s,
            device=device,
            platform=platform,
            seed=derive_seed(seed, f"survey:{i}"),
            **kwargs,
        )
        _append_retimed(trace, sub)
    return trace


def synthesize_calibration_trace(
    plan: FloorPlan,
    *,
    duration_s: float = 1800.0,
    scan_period_s: float = 2.0,
    device: str = "s3_mini",
    platform: str = "android",
    seed: int = 0,
    include_outside: bool = True,
    **kwargs,
) -> BeaconTrace:
    """The calibration walk of Section VI.

    A random-waypoint walk through every room; when
    ``include_outside`` is set, the walk is followed by a stretch just
    outside the building so the *outside* class gets labelled samples
    too (the paper's confusion matrix includes it).
    """
    inside_s = duration_s * (0.8 if include_outside else 1.0)
    walker = RandomWaypoint(plan, seed=derive_seed(seed, "calibration-walk"))
    trace = run_trace(
        plan,
        walker,
        scenario="calibration",
        duration_s=inside_s,
        scan_period_s=scan_period_s,
        device=device,
        platform=platform,
        seed=seed,
        **kwargs,
    )
    if include_outside:
        x_min, y_min, x_max, y_max = plan.bounds()
        outside_points = [
            Point(x_max + 2.0, (y_min + y_max) / 2.0),
            Point(x_max + 4.0, y_min - 1.0),
            Point(x_min - 3.0, y_max + 2.0),
        ]
        for i, p in enumerate(outside_points):
            outside = run_trace(
                plan,
                StaticPosition(p),
                scenario="calibration-outside",
                duration_s=(duration_s - inside_s) / len(outside_points),
                scan_period_s=scan_period_s,
                device=device,
                platform=platform,
                seed=derive_seed(seed, f"outside:{i}"),
                **kwargs,
            )
            # Re-time the outside records to follow the inside walk.
            offset = trace.records[-1].time if trace.records else 0.0
            for r in outside.records:
                trace.append(
                    TraceRecord(
                        time=offset + r.time,
                        device_id=r.device_id,
                        rssi=r.rssi,
                        distance=r.distance,
                        true_room=r.true_room,
                        true_position=r.true_position,
                    )
                )
    return trace
