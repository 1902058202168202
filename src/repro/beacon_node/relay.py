"""The relay board's GATT service (paper Section VII).

"we have created a Bluetooth server in the iBeacon transmitter (that
is thought to be not-battery based) that retransmits the information
received to the central server using HTTP requests."

The board exposes a GATT service with one writable characteristic; the
phone writes the JSON-encoded sighting report into it, and the board
POSTs it to the BMS over its (wired/mains) HTTP leg.  A NOTIFY
characteristic reports the relay outcome back to the phone.
"""

from __future__ import annotations

import json
import uuid as uuid_module

from repro.ble.gatt import (
    Characteristic,
    CharacteristicProperty,
    GattClient,
    GattServer,
    Service,
)
from repro.phone.app import SightingReport
from repro.server.client import BmsClient
from repro.server.rest import Router

__all__ = [
    "RELAY_SERVICE_UUID",
    "RELAY_REPORT_CHAR_UUID",
    "RELAY_STATUS_CHAR_UUID",
    "RelayBoardService",
    "write_report_via_gatt",
]

#: UUIDs of the relay service and its characteristics (project-local).
RELAY_SERVICE_UUID = uuid_module.UUID("0000f00d-0000-1000-8000-00805f9b34fb")
RELAY_REPORT_CHAR_UUID = uuid_module.UUID("0000f00e-0000-1000-8000-00805f9b34fb")
RELAY_STATUS_CHAR_UUID = uuid_module.UUID("0000f00f-0000-1000-8000-00805f9b34fb")


class RelayBoardService:
    """GATT server side of the relay, bridging to the BMS router.

    Args:
        router: the BMS REST router the board forwards to over HTTP.
    """

    def __init__(self, router: Router) -> None:
        self.router = router
        self.server = GattServer()
        self.reports_relayed = 0
        self.relay_failures = 0
        self._status = Characteristic(
            uuid=RELAY_STATUS_CHAR_UUID,
            properties=CharacteristicProperty.READ | CharacteristicProperty.NOTIFY,
            value=b"idle",
        )
        self._report = Characteristic(
            uuid=RELAY_REPORT_CHAR_UUID,
            properties=CharacteristicProperty.WRITE,
            on_write=self._relay,
        )
        self.server.add_service(
            Service(
                uuid=RELAY_SERVICE_UUID,
                characteristics=[self._report, self._status],
            )
        )

    def _relay(self, value: bytes) -> None:
        """Forward one written report to the BMS over HTTP."""
        try:
            body = json.loads(value.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.relay_failures += 1
            self.server.notify(self._status.handle, b"error:malformed")
            return
        response = self.router.dispatch(
            BmsClient.sighting_request(body, time=body.get("time", 0.0))
        )
        if response.ok:
            self.reports_relayed += 1
            self.server.notify(self._status.handle, b"ok")
        else:
            self.relay_failures += 1
            self.server.notify(
                self._status.handle, f"error:{response.status}".encode()
            )

    def connect(self) -> GattClient:
        """A phone connects to the board's GATT server."""
        return GattClient(self.server)


def write_report_via_gatt(client: GattClient, report: SightingReport) -> bytes:
    """Serialise and write a sighting report over a GATT connection.

    Returns:
        The board's status characteristic value after the write.

    Raises:
        GattError: connection dropped or service missing.
    """
    characteristic = client.find_characteristic(
        RELAY_SERVICE_UUID, RELAY_REPORT_CHAR_UUID
    )
    payload = json.dumps(report.to_sighting()).encode("utf-8")
    client.write(characteristic.handle, payload)
    status = client.find_characteristic(RELAY_SERVICE_UUID, RELAY_STATUS_CHAR_UUID)
    return client.read(status.handle)
