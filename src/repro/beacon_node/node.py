"""The beacon transmitter board (Raspberry Pi B + BLE dongle).

Drives the :class:`~repro.beacon_node.hci.HciStack` through the same
sequence the paper uses and exposes the resulting
:class:`~repro.building.floorplan.BeaconPlacement` for installation
into a floor plan.  Also hosts the Bluetooth relay server role of
Section VII (the board is mains powered, so relaying costs no phone
battery).
"""

from __future__ import annotations

from typing import Optional

from repro.beacon_node.hci import HciError, HciStack
from repro.building.floorplan import BeaconPlacement
from repro.building.geometry import Point
from repro.ibeacon.packet import IBeaconPacket, decode_packet

__all__ = ["BeaconNode"]


class BeaconNode:
    """A transmitter board at a position in the building.

    Args:
        name: board hostname (diagnostics only).
        position: installation position.
        room: room the beacon advertises.
        radiated_power_dbm: the dongle's physical 1 m received power
            (hardware property; the Inateck BTA-CSR4B5 of the paper
            lands around -59 dBm at 1 m).  The advertised TX power
            *byte* is metadata and does not change this - which is why
            the Section IV.A calibration loop exists.

    Example:
        >>> node = BeaconNode("pi-kitchen", Point(9.0, 2.0), "kitchen")
        >>> node.program(
        ...     IBeaconPacket(
        ...         uuid="f7826da6-4fa2-4e98-8024-bc5b71e0893e",
        ...         major=1, minor=2, tx_power=-59),
        ...     interval_s=0.1)
        >>> node.is_advertising
        True
    """

    def __init__(
        self,
        name: str,
        position: Point,
        room: str,
        radiated_power_dbm: float = -59.0,
    ) -> None:
        self.name = name
        self.position = position
        self.room = room
        self.radiated_power_dbm = float(radiated_power_dbm)
        self.hci = HciStack()
        self.relay_enabled = False
        self._packet: Optional[IBeaconPacket] = None

    def program(self, packet: IBeaconPacket, interval_s: float = 0.1) -> None:
        """Boot the board and start advertising ``packet``.

        Runs the full bluez sequence: power up, set parameters, load
        the encoded payload, enable advertising.
        """
        self.hci.up()
        self.hci.set_advertising_parameters(interval_s)
        self.hci.set_advertising_data(packet.encode())
        self.hci.enable_advertising()
        self._packet = packet

    def reprogram_tx_power(self, tx_power: int) -> None:
        """Rewrite only the TX power byte (the calibration loop's step).

        Raises:
            HciError: the node was never programmed.
        """
        if self._packet is None:
            raise HciError(f"node {self.name} has no packet programmed")
        updated = IBeaconPacket(
            uuid=self._packet.uuid,
            major=self._packet.major,
            minor=self._packet.minor,
            tx_power=tx_power,
        )
        self.hci.disable_advertising()
        self.hci.set_advertising_data(updated.encode())
        self.hci.enable_advertising()
        self._packet = updated

    def shutdown(self) -> None:
        """Power the board's adapter off."""
        self.hci.down()

    def enable_relay(self) -> None:
        """Start the Bluetooth relay server role (paper Section VII)."""
        if not self.hci.powered:
            raise HciError("cannot start the relay on a powered-down node")
        self.relay_enabled = True

    @property
    def is_advertising(self) -> bool:
        """True while the board broadcasts iBeacon packets."""
        return self.hci.advertising

    @property
    def packet(self) -> Optional[IBeaconPacket]:
        """The programmed packet, decoded back from the HCI register.

        Reading it back through :func:`decode_packet` keeps the node
        honest: what is advertised is exactly what is in the register.
        """
        if self.hci.adv_data is None:
            return None
        return decode_packet(self.hci.adv_data)

    def placement(self) -> BeaconPlacement:
        """The floor-plan installation record for this node.

        Raises:
            HciError: node not advertising.
        """
        if not self.is_advertising or self.packet is None:
            raise HciError(f"node {self.name} is not advertising")
        return BeaconPlacement(
            packet=self.packet,
            position=self.position,
            room=self.room,
            advertising_interval_s=self.hci.adv_interval_s,
            radiated_power_dbm=self.radiated_power_dbm,
        )

    def __repr__(self) -> str:
        return f"BeaconNode({self.name}, room={self.room}, {self.hci!r})"
