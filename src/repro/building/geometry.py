"""Planar geometry primitives for floor plans.

Points, line segments, and the segment-intersection predicate used to
count wall crossings in the multi-wall path-loss model, in scalar form
and vectorised over arrays of segments.  All coordinates are metres in
a building-local frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Point", "Segment", "segments_intersect", "segments_intersect_many"]

#: Tolerance for the orientation predicate; floor-plan coordinates are
#: metres, so this is far below any physically meaningful distance.
_EPS = 1e-12


@dataclass(frozen=True)
class Point:
    """A point (or displacement vector) in the floor-plan plane.

    Attributes:
        x: easting in metres.
        y: northing in metres.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        """This point treated as a vector, scaled by ``factor``."""
        return Point(self.x * factor, self.y * factor)

    def norm(self) -> float:
        """Length of this point treated as a vector."""
        return math.hypot(self.x, self.y)

    def as_tuple(self) -> tuple[float, float]:
        """The point as a plain ``(x, y)`` tuple."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Segment:
    """A directed line segment between two points.

    Attributes:
        a: start point.
        b: end point.
    """

    a: Point
    b: Point

    @property
    def length(self) -> float:
        """Segment length in metres."""
        return self.a.distance_to(self.b)

    def point_at(self, t: float) -> Point:
        """Linear interpolation: ``t=0`` is ``a``, ``t=1`` is ``b``."""
        return Point(
            self.a.x + (self.b.x - self.a.x) * t,
            self.a.y + (self.b.y - self.a.y) * t,
        )


def _orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p): CCW>0, CW<0, 0 collinear."""
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > _EPS:
        return 1
    if cross < -_EPS:
        return -1
    return 0


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Whether collinear point ``q`` lies within the bounding box of ``pr``."""
    return (
        min(p.x, r.x) - _EPS <= q.x <= max(p.x, r.x) + _EPS
        and min(p.y, r.y) - _EPS <= q.y <= max(p.y, r.y) + _EPS
    )


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Whether two closed segments share at least one point.

    Touching endpoints, T-junctions and collinear overlap all count as
    intersections; the predicate is symmetric in its arguments and
    robust to degenerate (zero-length) segments.
    """
    p1, q1 = s1.a, s1.b
    p2, q2 = s2.a, s2.b

    o1 = _orient(p1, q1, p2)
    o2 = _orient(p1, q1, q2)
    o3 = _orient(p2, q2, p1)
    o4 = _orient(p2, q2, q1)

    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True

    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, q2, q1):
        return True
    if o3 == 0 and _on_segment(p2, p1, q2):
        return True
    if o4 == 0 and _on_segment(p2, q1, q2):
        return True
    return False


def _orient_signs(px, py, qx, qy, rx, ry):
    """``_orient(p, q, r) > 0`` and ``_orient(p, q, r) < 0`` over arrays."""
    cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return cross > _EPS, cross < -_EPS


def _on_segment_many(p, q, r) -> np.ndarray:
    """:func:`_on_segment` over arrays of points, shape ``(..., 2)``."""
    low = np.minimum(p, r) - _EPS
    high = np.maximum(p, r) + _EPS
    qx, qy = q[..., 0], q[..., 1]
    return (
        (low[..., 0] <= qx) & (qx <= high[..., 0])
        & (low[..., 1] <= qy) & (qy <= high[..., 1])
    )


def segments_intersect_many(p1, q1, p2, q2) -> np.ndarray:
    """:func:`segments_intersect` over arrays of segments ``p1q1``, ``p2q2``.

    Each argument is an array of points, shape ``(..., 2)``; the four
    broadcast together and the result has their broadcast shape minus
    the last axis.  Every element is bitwise the scalar predicate's
    answer: the orientation crosses use the same expressions, and each
    is evaluated on the broadcast shape of its own three points.

    The one collinear case that leaves ``q1`` out, ``p1`` on the line
    of ``p2q2``, is decided on the shape of ``p1``, ``p2`` and ``q2``
    alone (a transmitter on a wall's line, whatever the receiver).  The
    other collinear cases, rare off axis-aligned geometry, are
    evaluated only where an orientation that involves ``q1`` is zero.
    """
    p1x, p1y = p1[..., 0], p1[..., 1]
    q1x, q1y = q1[..., 0], q1[..., 1]
    p2x, p2y = p2[..., 0], p2[..., 1]
    q2x, q2y = q2[..., 0], q2[..., 1]
    pos1, neg1 = _orient_signs(p1x, p1y, q1x, q1y, p2x, p2y)
    pos2, neg2 = _orient_signs(p1x, p1y, q1x, q1y, q2x, q2y)
    pos3, neg3 = _orient_signs(p2x, p2y, q2x, q2y, p1x, p1y)
    pos4, neg4 = _orient_signs(p2x, p2y, q2x, q2y, q1x, q1y)
    nonzero3 = pos3 | neg3
    # Where the orientations that involve q1 are nonzero, the scalar
    # predicate is a proper crossing or, with o3 zero (which rules a
    # proper crossing out), p1 on segment p2q2.
    crossed = np.asarray(
        (((pos1 & neg2) | (neg1 & pos2)) & ((pos3 & neg4) | (neg3 & pos4)))
        | (~nonzero3 & _on_segment_many(p2, p1, q2))
    )
    nonzero = (pos1 | neg1, pos2 | neg2, nonzero3, pos4 | neg4)
    collinear = ~(nonzero[0] & nonzero[1] & nonzero[3])
    if collinear.any():
        # A proper crossing has no zero orientation, so these elements
        # are decided by the collinear branches alone.
        p1c, q1c, p2c, q2c = (
            v[collinear] for v in np.broadcast_arrays(p1, q1, p2, q2)
        )
        z1, z2, z3, z4 = (~v[collinear] for v in np.broadcast_arrays(*nonzero))
        crossed[collinear] = (
            (z1 & _on_segment_many(p1c, p2c, q1c))
            | (z2 & _on_segment_many(p1c, q2c, q1c))
            | (z3 & _on_segment_many(p2c, p1c, q2c))
            | (z4 & _on_segment_many(p2c, q1c, q2c))
        )
    return crossed
