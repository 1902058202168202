"""Multilateration from noisy per-beacon distance estimates.

Given anchors (beacon positions) ``a_i`` and distance estimates
``d_i``, the position ``p`` minimises ``sum_i (||p - a_i|| - d_i)^2``.

Two stages:

1. **Linear least squares** - subtracting the first anchor's circle
   equation from the others linearises the problem; solved with
   ``numpy.linalg.lstsq``.  Needs >= 3 non-collinear anchors.
2. **Gauss-Newton refinement** - a few iterations on the true
   nonlinear residual, started from the linear solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.building.geometry import Point

__all__ = ["TrilaterationError", "TrilaterationResult", "trilaterate", "trilaterate_fingerprint"]


class TrilaterationError(ValueError):
    """Raised when a position cannot be solved (too few/degenerate anchors)."""


@dataclass(frozen=True)
class TrilaterationResult:
    """A solved position with its residual.

    Attributes:
        position: estimated position.
        rms_residual_m: RMS of ``| ||p - a_i|| - d_i |`` at the
            solution - a confidence indicator (large residual = the
            circles do not nearly intersect).
        iterations: Gauss-Newton iterations performed.
    """

    position: Point
    rms_residual_m: float
    iterations: int


def _linear_seed(anchors: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Linearised least-squares seed position."""
    a0 = anchors[0]
    d0 = distances[0]
    rows = []
    rhs = []
    for a_i, d_i in zip(anchors[1:], distances[1:]):
        rows.append(2.0 * (a_i - a0))
        rhs.append(
            d0 ** 2 - d_i ** 2 + np.dot(a_i, a_i) - np.dot(a0, a0)
        )
    A = np.asarray(rows)
    b = np.asarray(rhs)
    solution, residuals, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 2:
        raise TrilaterationError("anchors are collinear; position is ambiguous")
    return solution


def trilaterate(
    anchors: Sequence[Tuple[float, float]],
    distances: Sequence[float],
    *,
    max_iterations: int = 15,
    tolerance_m: float = 1e-6,
) -> TrilaterationResult:
    """Solve a 2-D position from anchor/distance pairs.

    Args:
        anchors: at least three (x, y) anchor positions.
        distances: estimated distance to each anchor (same order).
        max_iterations: Gauss-Newton iteration cap.
        tolerance_m: stop once the position update is below this.

    Raises:
        TrilaterationError: fewer than 3 anchors, mismatched lengths,
            negative distances or collinear anchors.
    """
    anchors = np.asarray(anchors, dtype=float)
    distances = np.asarray(distances, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise TrilaterationError(f"anchors must be (n, 2), got {anchors.shape}")
    if anchors.shape[0] != distances.shape[0]:
        raise TrilaterationError(
            f"{anchors.shape[0]} anchors but {distances.shape[0]} distances"
        )
    if anchors.shape[0] < 3:
        raise TrilaterationError(
            f"need >= 3 anchors for a 2-D fix, got {anchors.shape[0]}"
        )
    if np.any(distances < 0.0):
        raise TrilaterationError("distances must be non-negative")

    position = _linear_seed(anchors, distances)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        deltas = position - anchors
        ranges = np.linalg.norm(deltas, axis=1)
        ranges = np.maximum(ranges, 1e-9)
        residual = ranges - distances
        jacobian = deltas / ranges[:, None]
        try:
            step, *_ = np.linalg.lstsq(jacobian, residual, rcond=None)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise TrilaterationError(f"Gauss-Newton failed: {exc}")
        position = position - step
        if np.linalg.norm(step) < tolerance_m:
            break
    ranges = np.linalg.norm(position - anchors, axis=1)
    rms = float(np.sqrt(np.mean((ranges - distances) ** 2)))
    return TrilaterationResult(
        position=Point(float(position[0]), float(position[1])),
        rms_residual_m=rms,
        iterations=iterations,
    )


def trilaterate_fingerprint(
    fingerprint: Mapping[str, float],
    beacon_positions: Mapping[str, Point],
    **kwargs,
) -> TrilaterationResult:
    """Trilaterate from a beacon_id -> distance fingerprint.

    Beacons without a known position are ignored.

    Raises:
        TrilaterationError: fewer than 3 usable beacons.
    """
    anchors = []
    distances = []
    for beacon_id, distance in sorted(fingerprint.items()):
        position = beacon_positions.get(beacon_id)
        if position is None:
            continue
        anchors.append(position.as_tuple())
        distances.append(float(distance))
    if len(anchors) < 3:
        raise TrilaterationError(
            f"fingerprint has {len(anchors)} usable beacons; need >= 3"
        )
    return trilaterate(anchors, distances, **kwargs)
