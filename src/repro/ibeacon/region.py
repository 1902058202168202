"""iBeacon regions and monitoring semantics.

A *region* is the set of beacons matching a proximity UUID and,
optionally, a major and minor value (Section III of the paper).  The
app's Monitoring Service raises *enter*/*exit* events as the device
starts or stops seeing beacons of a monitored region; the Ranging
Service then reports the individual beacons.
"""

from __future__ import annotations

import enum
import uuid as uuid_module
from dataclasses import dataclass
from typing import Optional

from repro.ibeacon.packet import IBeaconPacket

__all__ = ["BeaconRegion", "RegionEvent", "RegionEventKind"]


class RegionEventKind(enum.Enum):
    """Kind of region-monitoring transition."""

    ENTER = "enter"
    EXIT = "exit"


@dataclass(frozen=True)
class BeaconRegion:
    """A monitored iBeacon region.

    ``major``/``minor`` of ``None`` act as wildcards, exactly like
    ``CLBeaconRegion`` / the Radius Networks Android library: a region
    with only a UUID matches every beacon of that organisation.

    Attributes:
        identifier: human-readable name used in events.
        uuid: proximity UUID to match.
        major: optional major filter.
        minor: optional minor filter (requires ``major``).
    """

    identifier: str
    uuid: uuid_module.UUID
    major: Optional[int] = None
    minor: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.uuid, uuid_module.UUID):
            object.__setattr__(self, "uuid", uuid_module.UUID(str(self.uuid)))
        if self.minor is not None and self.major is None:
            raise ValueError("a region with a minor filter must also set major")
        for name in ("major", "minor"):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} must be in 0..65535, got {value}")

    def matches(self, packet: IBeaconPacket) -> bool:
        """True when ``packet`` belongs to this region."""
        if packet.uuid != self.uuid:
            return False
        if self.major is not None and packet.major != self.major:
            return False
        if self.minor is not None and packet.minor != self.minor:
            return False
        return True

    def __str__(self) -> str:
        parts = [f"uuid={self.uuid}"]
        if self.major is not None:
            parts.append(f"major={self.major}")
        if self.minor is not None:
            parts.append(f"minor={self.minor}")
        return f"Region({self.identifier}: {', '.join(parts)})"


@dataclass(frozen=True)
class RegionEvent:
    """An enter/exit transition raised by the Monitoring Service."""

    time: float
    kind: RegionEventKind
    region: BeaconRegion

    def __str__(self) -> str:
        return f"{self.kind.value} {self.region.identifier} @ {self.time:.2f}s"
