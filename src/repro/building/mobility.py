"""Occupant mobility models.

The paper's occupants walk through the test house at pedestrian speeds
(1–1.5 m/s).  Each model maps simulation time to a position; all
randomness is drawn from :mod:`numpy` generators seeded through
:func:`repro.sim.rng.derive_seed`, so trajectories are reproducible and
pure — querying positions out of order never changes the path.

A scanner asks its trajectory for a whole listening window at once
(:meth:`MobilityModel.positions_at`).  :class:`StaticPosition` and
:class:`RandomWaypoint` answer that in one array pass, the other models
with the base class's per-time loop; either way the result is
bit-identical to :meth:`position_at`.
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence

import numpy as np

from repro.building.floorplan import OUTSIDE, FloorPlan, Room
from repro.building.geometry import Point
from repro.sim.rng import derive_seed

__all__ = [
    "MobilityModel",
    "StaticPosition",
    "WaypointPath",
    "RandomWaypoint",
    "RoomSchedule",
]

#: Half-window for the finite-difference speed estimate, in seconds.
_SPEED_DT = 0.5


class MobilityModel:
    """Base class: a time-parameterised trajectory in the plan frame."""

    def position_at(self, t: float) -> Point:
        """Occupant position at simulation time ``t`` (seconds)."""
        raise NotImplementedError

    def positions_at(self, times: Sequence[float]) -> np.ndarray:
        """Positions at many times, as an ``(n, 2)`` array.

        The default evaluates :meth:`position_at` per time; overrides
        may vectorise but must return bit-identical coordinates, since
        the scanner asks for a listening window's positions in one call
        and the columnar fleet engine relies on this to reproduce the
        scalar pipeline exactly.
        """
        out = np.empty((len(times), 2), dtype=float)
        for i, t in enumerate(times):
            p = self.position_at(float(t))
            out[i, 0] = p.x
            out[i, 1] = p.y
        return out

    def speed_at(self, t: float) -> float:
        """Ground speed at ``t``, from a central finite difference."""
        t0 = max(t - _SPEED_DT, 0.0)
        t1 = t + _SPEED_DT
        if t1 <= t0:
            return 0.0
        delta = self.position_at(t1) - self.position_at(t0)
        return delta.norm() / (t1 - t0)


class StaticPosition(MobilityModel):
    """An occupant who never moves (the paper's static RSSI surveys)."""

    def __init__(self, position: Point) -> None:
        self.position = position

    def position_at(self, t: float) -> Point:
        """The fixed position, at any time."""
        return self.position

    def positions_at(self, times: Sequence[float]) -> np.ndarray:
        """The fixed position, broadcast to every time."""
        out = np.empty(np.shape(times) + (2,), dtype=float)
        out[..., 0] = self.position.x
        out[..., 1] = self.position.y
        return out

    def speed_at(self, t: float) -> float:
        """Always exactly zero."""
        return 0.0

    def __repr__(self) -> str:
        return f"StaticPosition({self.position})"


class WaypointPath(MobilityModel):
    """Constant-speed walk through an explicit list of waypoints.

    The occupant holds at the first waypoint until ``start_time``,
    walks each leg at ``speed_mps``, and holds at the final waypoint
    forever after :attr:`end_time`.
    """

    def __init__(
        self,
        points: Sequence[Point],
        speed_mps: float = 1.2,
        start_time: float = 0.0,
    ) -> None:
        if not points:
            raise ValueError("WaypointPath needs at least one waypoint")
        if speed_mps <= 0.0:
            raise ValueError(f"speed_mps must be > 0, got {speed_mps}")
        self.points = list(points)
        self.speed_mps = float(speed_mps)
        self.start_time = float(start_time)
        self._leg_starts = [0.0]
        for a, b in zip(self.points, self.points[1:]):
            self._leg_starts.append(
                self._leg_starts[-1] + a.distance_to(b) / self.speed_mps
            )

    @property
    def end_time(self) -> float:
        """Arrival time at the final waypoint."""
        return self.start_time + self._leg_starts[-1]

    def position_at(self, t: float) -> Point:
        """Position along the path at time ``t`` (clamped to the ends)."""
        elapsed = t - self.start_time
        if elapsed <= 0.0 or len(self.points) == 1:
            return self.points[0]
        if elapsed >= self._leg_starts[-1]:
            return self.points[-1]
        leg = bisect.bisect_right(self._leg_starts, elapsed) - 1
        leg_duration = self._leg_starts[leg + 1] - self._leg_starts[leg]
        frac = (elapsed - self._leg_starts[leg]) / leg_duration
        a, b = self.points[leg], self.points[leg + 1]
        return a + (b - a).scaled(frac)


class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model confined to a floor plan.

    The occupant repeatedly pauses, picks a uniformly random target
    point inside a uniformly random room, and walks there in a straight
    line at a uniformly random speed.  Legs are generated lazily but
    strictly in time order from a private seeded generator, so the
    trajectory is a pure function of ``(plan, seed)``.
    """

    #: Keep random waypoints this far from room boundaries, in metres.
    _WALL_MARGIN_M = 0.3

    def __init__(
        self,
        plan: FloorPlan,
        seed: int = 0,
        speed_range_mps: tuple[float, float] = (1.0, 1.5),
        pause_range_s: tuple[float, float] = (0.0, 30.0),
        start_room: Optional[str] = None,
    ) -> None:
        lo_v, hi_v = speed_range_mps
        if lo_v <= 0.0 or hi_v < lo_v:
            raise ValueError(f"invalid speed_range_mps {speed_range_mps}")
        lo_p, hi_p = pause_range_s
        if lo_p < 0.0 or hi_p < lo_p:
            raise ValueError(f"invalid pause_range_s {pause_range_s}")
        self.plan = plan
        self.seed = int(seed)
        self.speed_range_mps = (float(lo_v), float(hi_v))
        self.pause_range_s = (float(lo_p), float(hi_p))
        self._rng = np.random.default_rng(
            derive_seed(self.seed, "mobility:random-waypoint")
        )
        first_room = (
            plan.room(start_room) if start_room is not None else self._pick_room()
        )
        self._cursor = self._point_in_room(first_room)
        # Generated legs: parallel lists of start time and (t0,t1,a,b).
        self._leg_starts: list[float] = []
        self._legs: list[tuple[float, float, Point, Point]] = []
        # The same legs as float rows (t0, t1, ax, ay, bx, by), one
        # contiguous column per row, in a buffer that doubles when full.
        self._columns = np.empty((6, 64), dtype=float)
        self._columns_filled = 0
        self._horizon = 0.0

    def _pick_room(self) -> Room:
        return self.plan.rooms[int(self._rng.integers(len(self.plan.rooms)))]

    def _point_in_room(self, room: Room) -> Point:
        margin = min(
            self._WALL_MARGIN_M,
            (room.x_max - room.x_min) / 4.0,
            (room.y_max - room.y_min) / 4.0,
        )
        return Point(
            float(self._rng.uniform(room.x_min + margin, room.x_max - margin)),
            float(self._rng.uniform(room.y_min + margin, room.y_max - margin)),
        )

    def _append_leg(self, duration: float, target: Point) -> None:
        t0, t1 = self._horizon, self._horizon + duration
        self._leg_starts.append(t0)
        self._legs.append((t0, t1, self._cursor, target))
        self._horizon = t1
        self._cursor = target

    def _extend_to(self, t: float) -> None:
        while self._horizon <= t:
            pause = float(self._rng.uniform(*self.pause_range_s))
            if pause > 0.0:
                self._append_leg(pause, self._cursor)
            target = self._point_in_room(self._pick_room())
            speed = float(self._rng.uniform(*self.speed_range_mps))
            self._append_leg(self._cursor.distance_to(target) / speed, target)

    def position_at(self, t: float) -> Point:
        """Trajectory position at ``t`` (negative times clamp to 0)."""
        t = max(t, 0.0)
        self._extend_to(t)
        index = max(bisect.bisect_right(self._leg_starts, t) - 1, 0)
        t0, t1, a, b = self._legs[index]
        if t1 <= t0:
            return b
        frac = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        return a + (b - a).scaled(frac)

    def _leg_columns(self) -> np.ndarray:
        """The generated legs as ``(6, legs)`` float columns.

        Only legs generated since the last call are converted, so a
        query costs the same however long the trajectory has grown.
        """
        filled, n = self._columns_filled, len(self._legs)
        if n > filled:
            capacity = self._columns.shape[1]
            if n > capacity:
                grown = np.empty((6, max(n, 2 * capacity)), dtype=float)
                grown[:, :filled] = self._columns[:, :filled]
                self._columns = grown
            new_legs = self._legs[filled:]
            self._columns[:, filled:n] = np.asarray(
                [(t0, t1, a.x, a.y, b.x, b.y) for t0, t1, a, b in new_legs],
                dtype=float,
            ).T
            self._columns_filled = n
        return self._columns[:, :n]

    def positions_at(self, times: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`position_at` over arbitrary query times.

        Legs are extended once to the latest query, then every lookup
        is a single ``searchsorted`` pass.  Coordinates are computed
        with the same expressions as the scalar path, so
        ``positions_at(ts)[i]`` equals ``position_at(ts[i])`` exactly.
        """
        ts = np.maximum(np.asarray(times, dtype=float), 0.0)
        if ts.size == 0:
            return np.empty((0, 2), dtype=float)
        self._extend_to(float(ts.max()))
        columns = self._leg_columns()
        index = np.maximum(np.searchsorted(columns[0], ts, side="right") - 1, 0)
        t0, t1, ax, ay, bx, by = columns[:, index]
        moving = t1 > t0
        # Guard the division on degenerate legs; those rows take ``b``.
        frac = np.clip((ts - t0) / np.where(moving, t1 - t0, 1.0), 0.0, 1.0)
        out = np.empty(ts.shape + (2,), dtype=float)
        out[..., 0] = np.where(moving, ax + (bx - ax) * frac, bx)
        out[..., 1] = np.where(moving, ay + (by - ay) * frac, by)
        return out


class RoomSchedule(MobilityModel):
    """Scripted daily schedule: be in room X from time T onwards.

    ``entries`` is a time-sorted list of ``(time_s, room_name)`` pairs;
    the special room name :data:`repro.building.floorplan.OUTSIDE`
    parks the occupant just outside the building footprint.  At each
    entry time the occupant walks in a straight line from its current
    position to the target room's centre at ``speed_mps``.
    """

    def __init__(
        self,
        plan: FloorPlan,
        entries: Sequence[tuple[float, str]],
        speed_mps: float = 1.4,
    ) -> None:
        if not entries:
            raise ValueError("RoomSchedule needs at least one entry")
        if speed_mps <= 0.0:
            raise ValueError(f"speed_mps must be > 0, got {speed_mps}")
        times = [t for t, _ in entries]
        if times != sorted(times):
            raise ValueError(f"schedule entries must be time-sorted: {times}")
        for _, room in entries:
            if room != OUTSIDE:
                plan.room(room)  # raises KeyError on unknown rooms
        self.plan = plan
        self.entries = [(float(t), room) for t, room in entries]
        self.speed_mps = float(speed_mps)
        # Walking legs, one per entry: (depart_t, arrive_t, from, to).
        self._legs: list[tuple[float, float, Point, Point]] = []
        position = self._room_anchor(self.entries[0][1])
        for entry_time, room in self.entries:
            target = self._room_anchor(room)
            duration = position.distance_to(target) / self.speed_mps
            self._legs.append((entry_time, entry_time + duration, position, target))
            position = target
        self._entry_times = [t for t, _ in self.entries]

    def _room_anchor(self, room: str) -> Point:
        """Destination point for a scheduled room (or outside the door)."""
        if room == OUTSIDE:
            x_min, y_min, _, y_max = self.plan.bounds()
            return Point(x_min - 2.0, (y_min + y_max) / 2.0)
        return self.plan.room(room).centre

    def room_at(self, t: float) -> str:
        """The scheduled (target) room at time ``t``."""
        index = max(bisect.bisect_right(self._entry_times, t) - 1, 0)
        return self.entries[index][1]

    def position_at(self, t: float) -> Point:
        """Position at ``t``: parked at an anchor or walking between two."""
        index = max(bisect.bisect_right(self._entry_times, t) - 1, 0)
        t0, t1, a, b = self._legs[index]
        if t <= t0 or t1 <= t0:
            return a if t <= t0 else b
        frac = min((t - t0) / (t1 - t0), 1.0)
        return a + (b - a).scaled(frac)
