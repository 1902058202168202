"""Protocol sniffing: classify and decode raw advertisement payloads.

The Radius Networks library the paper builds on identifies beacon
formats by matching byte-layout patterns against incoming
advertisements.  This module does the same for the two formats the
reproduction implements - Apple iBeacon and AltBeacon - so upper
layers can work from raw bytes rather than pre-typed packets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.ibeacon.altbeacon import ALTBEACON_CODE, AltBeaconPacket, decode_altbeacon
from repro.ibeacon.packet import (
    IBEACON_PREFIX,
    IBeaconPacket,
    PacketDecodeError,
    decode_packet,
)

__all__ = [
    "BeaconFormat",
    "SniffedBeacon",
    "identify_format",
    "sniff",
    "decode_ibeacon",
]


class BeaconFormat(enum.Enum):
    """Recognised advertisement layouts."""

    IBEACON = "ibeacon"
    ALTBEACON = "altbeacon"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SniffedBeacon:
    """A decoded advertisement with its detected format.

    Attributes:
        format: which layout matched.
        packet: the decoded packet (``None`` for UNKNOWN).
    """

    format: BeaconFormat
    packet: Optional[Union[IBeaconPacket, AltBeaconPacket]]

    @property
    def identity(self) -> Optional[tuple]:
        """The (uuid, major, minor) triple, format-independent."""
        if self.packet is None:
            return None
        return self.packet.identity


def identify_format(payload: bytes) -> BeaconFormat:
    """Classify a raw payload by its byte-layout signature.

    iBeacon: starts with the 9-byte Apple prefix.  AltBeacon: ``1B FF``
    AD header with the ``BE AC`` beacon code at offset 4.
    """
    payload = bytes(payload)
    if payload[: len(IBEACON_PREFIX)] == IBEACON_PREFIX:
        return BeaconFormat.IBEACON
    if (
        len(payload) >= 6
        and payload[0] == 0x1B
        and payload[1] == 0xFF
        and payload[4:6] == ALTBEACON_CODE
    ):
        return BeaconFormat.ALTBEACON
    return BeaconFormat.UNKNOWN


def sniff(payload: bytes) -> SniffedBeacon:
    """Identify and decode a raw advertisement.

    Malformed payloads of a recognised format degrade to UNKNOWN
    rather than raising - a scanner must survive hostile air.
    """
    fmt = identify_format(payload)
    try:
        if fmt is BeaconFormat.IBEACON:
            return SniffedBeacon(format=fmt, packet=decode_packet(payload))
        if fmt is BeaconFormat.ALTBEACON:
            return SniffedBeacon(format=fmt, packet=decode_altbeacon(payload))
    except (PacketDecodeError, ValueError):
        pass
    return SniffedBeacon(format=BeaconFormat.UNKNOWN, packet=None)


def decode_ibeacon(payload: bytes) -> Optional[IBeaconPacket]:
    """The iBeacon identity a phone's stack reads from a raw payload.

    AltBeacon framings are normalised to the iBeacon identity; ``None``
    when the payload does not decode (the stack cannot range what it
    cannot parse).
    """
    packet = sniff(payload).packet
    if packet is not None and hasattr(packet, "to_ibeacon"):
        packet = packet.to_ibeacon()
    return packet
