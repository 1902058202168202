"""Calibration: from operator walk to a labelled fingerprint dataset.

Section VI: "a data collection phase is needed, requiring an operator
that walks around the building collecting samples (beacon identifiers
and their detected distances).  These samples are then associated with
the specific room and sent to the server that stores them in the
database."
"""

from __future__ import annotations

from repro.building.floorplan import FloorPlan
from repro.ml.datasets import FingerprintDataset
from repro.traces.schema import BeaconTrace
from repro.traces.synth import (
    synthesize_calibration_trace,
    synthesize_survey_trace,
)

__all__ = ["dataset_from_trace", "run_calibration"]


def dataset_from_trace(
    trace: BeaconTrace, feature: str = "distance"
) -> FingerprintDataset:
    """Convert a ground-truth-labelled trace into training data.

    Args:
        trace: a synthetic trace whose records carry ``true_room``.
        feature: ``"distance"`` (paper's choice) or ``"rssi"``.

    Raises:
        ValueError: unlabelled records or unknown feature.
    """
    if feature not in ("distance", "rssi"):
        raise ValueError(f"feature must be 'distance' or 'rssi', got {feature!r}")
    data = FingerprintDataset()
    for record in trace.records:
        if record.true_room is None:
            raise ValueError(
                f"record at t={record.time} has no ground-truth room label"
            )
        fingerprint = record.distance if feature == "distance" else record.rssi
        if not fingerprint:
            # No beacon visible: still a valid "outside"-style sample
            # only if labelled outside; otherwise skip the empty cycle.
            if record.true_room != "outside":
                continue
            fingerprint = {}
        if fingerprint:
            data.add(fingerprint, record.true_room, record.time)
    return data


def run_calibration(
    plan: FloorPlan,
    *,
    duration_s: float = 1800.0,
    scan_period_s: float = 2.0,
    device: str = "s3_mini",
    platform: str = "android",
    feature: str = "distance",
    seed: int = 0,
    include_outside: bool = True,
    mode: str = "survey",
    channel=None,
) -> FingerprintDataset:
    """Simulate the operator's calibration pass and label the samples.

    Args:
        mode: ``"survey"`` (dwell at sampled points per room - the
            standard fingerprint site-survey, default) or ``"walk"``
            (continuous random-waypoint walk; noisier labels because
            the filter carries history across room boundaries).
        duration_s: total collection time; in survey mode it is split
            across the sampled points.
        channel: the building's :class:`~repro.radio.channel.ChannelModel`.
            Pass the same instance used for the online run - the
            shadowing field is a property of the building, so
            calibration and detection must share it.  ``None`` derives
            a fresh channel from ``seed``.

    Returns:
        The labelled dataset ready for
        :meth:`repro.server.bms.BuildingManagementServer.train`.
    """
    if mode == "survey":
        n_sites = len(plan.rooms) * 6 + (4 if include_outside else 0)
        dwell = max(scan_period_s, duration_s / n_sites)
        trace = synthesize_survey_trace(
            plan,
            points_per_room=6,
            dwell_s=dwell,
            outside_points=4 if include_outside else 0,
            scan_period_s=scan_period_s,
            device=device,
            platform=platform,
            seed=seed,
            channel=channel,
        )
    elif mode == "walk":
        trace = synthesize_calibration_trace(
            plan,
            duration_s=duration_s,
            scan_period_s=scan_period_s,
            device=device,
            platform=platform,
            seed=seed,
            include_outside=include_outside,
            channel=channel,
        )
    else:
        raise ValueError(f"mode must be 'survey' or 'walk', got {mode!r}")
    return dataset_from_trace(trace, feature=feature)
