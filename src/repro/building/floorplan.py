"""Floor plans: rooms, walls, and iBeacon placements.

A :class:`FloorPlan` is the static world model shared by the whole
stack — the air interface asks it which walls a radio ray crosses, the
mobility models ask it where rooms are, and the classifier uses its
room labels as the class set (plus the implicit :data:`OUTSIDE` label).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.building.geometry import (
    Point,
    Segment,
    segments_intersect,
    segments_intersect_many,
)
from repro.ibeacon.packet import IBeaconPacket
from repro.radio.materials import WALL_MATERIALS

__all__ = ["OUTSIDE", "Room", "Wall", "BeaconPlacement", "FloorPlan"]

#: Label used for positions not inside any room, and as the implicit
#: extra class in classification.
OUTSIDE = "outside"

#: Either a :class:`Point` or a plain ``(x, y)`` tuple.
PointLike = Union[Point, tuple[float, float], Sequence[float]]


def _as_point(value: PointLike) -> Point:
    """Coerce a ``Point`` or ``(x, y)`` pair to a :class:`Point`."""
    if isinstance(value, Point):
        return value
    x, y = value
    return Point(float(x), float(y))


@dataclass(frozen=True)
class Room:
    """An axis-aligned rectangular room.

    Attributes:
        name: unique room label (must not collide with :data:`OUTSIDE`).
        x_min: west edge in metres.
        y_min: south edge in metres.
        x_max: east edge in metres.
        y_max: north edge in metres.
    """

    name: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.name == OUTSIDE:
            raise ValueError(f"room name {OUTSIDE!r} is reserved")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(
                f"room {self.name!r} has degenerate extent "
                f"({self.x_min},{self.y_min})-({self.x_max},{self.y_max})"
            )

    def contains(self, point: PointLike) -> bool:
        """Whether ``point`` lies in the room (boundary inclusive)."""
        p = _as_point(point)
        return (
            self.x_min <= p.x <= self.x_max
            and self.y_min <= p.y <= self.y_max
        )

    @property
    def centre(self) -> Point:
        """Geometric centre of the room."""
        return Point(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
        )

    @property
    def area(self) -> float:
        """Floor area in square metres."""
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True)
class Wall:
    """A straight wall segment with a radio-attenuating material.

    Attributes:
        segment: wall geometry.
        material: key into :data:`repro.radio.materials.WALL_MATERIALS`.
    """

    segment: Segment
    material: str

    def __post_init__(self) -> None:
        if self.material not in WALL_MATERIALS:
            raise ValueError(
                f"unknown wall material {self.material!r}; "
                f"known: {sorted(WALL_MATERIALS)}"
            )


@dataclass(frozen=True)
class BeaconPlacement:
    """An iBeacon transmitter installed at a fixed indoor position.

    Attributes:
        packet: the advertisement payload the node broadcasts.
        position: transmitter location.
        room: name of the room the beacon is installed in.
        advertising_interval_s: nominal advertising period (paper
            default 100 ms).
        radiated_power_dbm: actual radiated power when it differs from
            the calibrated 1 m RSSI encoded in the packet; ``None``
            means the packet's ``tx_power`` is radiated as-is.
    """

    packet: IBeaconPacket
    position: Point
    room: str
    advertising_interval_s: float = 0.1
    radiated_power_dbm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.advertising_interval_s <= 0.0:
            raise ValueError(
                "advertising_interval_s must be > 0, got "
                f"{self.advertising_interval_s}"
            )

    @property
    def beacon_id(self) -> str:
        """Stable identifier, ``"{major}-{minor}"``."""
        return f"{self.packet.major}-{self.packet.minor}"

    @property
    def effective_radiated_power_dbm(self) -> float:
        """Power actually radiated (falls back to the packet's tx_power)."""
        if self.radiated_power_dbm is not None:
            return self.radiated_power_dbm
        return float(self.packet.tx_power)


@dataclass
class FloorPlan:
    """Rooms, walls and beacon placements of one building floor.

    Attributes:
        rooms: the rooms, with unique names.
        walls: attenuating wall segments.
        beacons: installed beacon placements, with unique beacon ids.
    """

    rooms: list[Room]
    walls: list[Wall] = field(default_factory=list)
    beacons: list[BeaconPlacement] = field(default_factory=list)
    #: ``(walls, table)``: the wall table of :meth:`wall_losses` and the
    #: wall list it was built from.
    _wall_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.rooms = list(self.rooms)
        self.walls = list(self.walls)
        placements = list(self.beacons)
        self.beacons = []
        names = [room.name for room in self.rooms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate room names in {names}")
        for placement in placements:
            self.add_beacon(placement)

    @property
    def room_names(self) -> list[str]:
        """Room names in declaration order."""
        return [room.name for room in self.rooms]

    @property
    def beacon_ids(self) -> list[str]:
        """Beacon ids in installation order."""
        return [beacon.beacon_id for beacon in self.beacons]

    @property
    def labels(self) -> list[str]:
        """Classification labels: every room plus :data:`OUTSIDE`."""
        return self.room_names + [OUTSIDE]

    def room(self, name: str) -> Room:
        """Look a room up by name.

        Raises:
            KeyError: no such room.
        """
        for candidate in self.rooms:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no room named {name!r}; have {self.room_names}")

    def room_at(self, point: PointLike) -> str:
        """Name of the room containing ``point``, or :data:`OUTSIDE`."""
        p = _as_point(point)
        for candidate in self.rooms:
            if candidate.contains(p):
                return candidate.name
        return OUTSIDE

    def add_beacon(self, placement: BeaconPlacement) -> None:
        """Install a beacon, validating its room and id uniqueness.

        Raises:
            ValueError: unknown room or duplicate beacon id.
        """
        if placement.room not in self.room_names:
            raise ValueError(
                f"beacon {placement.beacon_id} placed in unknown room "
                f"{placement.room!r}; have {self.room_names}"
            )
        if placement.beacon_id in self.beacon_ids:
            raise ValueError(f"duplicate beacon id {placement.beacon_id!r}")
        self.beacons.append(placement)

    def beacon(self, beacon_id: str) -> BeaconPlacement:
        """Look a beacon placement up by id.

        Raises:
            KeyError: no such beacon.
        """
        for candidate in self.beacons:
            if candidate.beacon_id == beacon_id:
                return candidate
        raise KeyError(f"no beacon {beacon_id!r}; have {self.beacon_ids}")

    def walls_crossed(self, p1: PointLike, p2: PointLike) -> list[str]:
        """Materials of the walls crossed by the ray ``p1`` to ``p2``.

        Accepts :class:`Point` instances or plain tuples.  The scalar
        oracle of :meth:`wall_losses`, which the radio channel calls.
        """
        ray = Segment(_as_point(p1), _as_point(p2))
        return [
            wall.material
            for wall in self.walls
            if segments_intersect(ray, wall.segment)
        ]

    def wall_losses(self, tx, rx) -> np.ndarray:
        """Loss in dB of the walls crossed by each ray ``tx`` to ``rx``.

        The array form of ``wall_loss_db(walls_crossed(tx, rx))`` and
        the ``wall_oracle`` the radio channel model calls.  ``tx`` and
        ``rx`` are arrays of positions, shape ``(..., 2)``, that
        broadcast together; the result has their broadcast shape minus
        the last axis.  Each ray's losses are added in plan wall order,
        as ``wall_loss_db`` adds them, so every element is bitwise the
        scalar sum.
        """
        tx = np.asarray(tx, dtype=float)
        rx = np.asarray(rx, dtype=float)
        total = np.zeros(np.broadcast_shapes(tx.shape, rx.shape)[:-1])
        if not self.walls:
            return total
        starts, ends, losses = self._wall_table()
        # One wall per leading index, broadcast against every ray.
        lead = (len(losses),) + (1,) * total.ndim + (2,)
        crossed = segments_intersect_many(
            tx, rx, starts.reshape(lead), ends.reshape(lead)
        )
        for loss, hit in zip(losses, crossed):
            total += loss * hit
        return total

    def _wall_table(self) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """Wall start and end points, shape ``(walls, 2)``, and losses in dB.

        Built on first use and kept until ``walls`` no longer equals the
        list it was built from (a wall added, removed or replaced, or
        the list reassigned).
        """
        cache = self._wall_cache
        if cache is not None and cache[0] == self.walls:
            return cache[1]
        ends = np.array(
            [(w.segment.a.as_tuple(), w.segment.b.as_tuple()) for w in self.walls],
            dtype=float,
        ).reshape(-1, 2, 2)
        table = (
            ends[:, 0].copy(),
            ends[:, 1].copy(),
            [WALL_MATERIALS[w.material].loss_db for w in self.walls],
        )
        self._wall_cache = (list(self.walls), table)
        return table

    def bounds(self) -> tuple[float, float, float, float]:
        """Bounding box ``(x_min, y_min, x_max, y_max)`` over all rooms.

        Raises:
            ValueError: the plan has no rooms.
        """
        if not self.rooms:
            raise ValueError("floor plan has no rooms")
        return (
            min(room.x_min for room in self.rooms),
            min(room.y_min for room in self.rooms),
            max(room.x_max for room in self.rooms),
            max(room.y_max for room in self.rooms),
        )

    def __repr__(self) -> str:
        return (
            f"FloorPlan(rooms={self.room_names}, "
            f"walls={len(self.walls)}, beacons={self.beacon_ids})"
        )
