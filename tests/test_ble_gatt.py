"""Tests for the GATT layer and the relay board service."""

import uuid

import pytest

from repro.ble.gatt import (
    Characteristic,
    CharacteristicProperty,
    GattClient,
    GattError,
    GattServer,
    Service,
)
from repro.beacon_node.relay import (
    RELAY_REPORT_CHAR_UUID,
    RELAY_SERVICE_UUID,
    RELAY_STATUS_CHAR_UUID,
    RelayBoardService,
    write_report_via_gatt,
)
from repro.phone.app import RangedBeacon, SightingReport
from repro.server.rest import Router

SVC = uuid.UUID("0000aaaa-0000-1000-8000-00805f9b34fb")
CHR = uuid.UUID("0000bbbb-0000-1000-8000-00805f9b34fb")


def simple_server(properties=CharacteristicProperty.READ | CharacteristicProperty.WRITE):
    server = GattServer()
    characteristic = Characteristic(uuid=CHR, properties=properties, value=b"init")
    server.add_service(Service(uuid=SVC, characteristics=[characteristic]))
    return server, characteristic


class TestGattServer:
    def test_handles_assigned_sequentially(self):
        server, characteristic = simple_server()
        assert server.services[0].handle == 1
        assert characteristic.handle == 2

    def test_read_write_roundtrip(self):
        server, characteristic = simple_server()
        server.write(characteristic.handle, b"hello")
        assert server.read(characteristic.handle) == b"hello"

    def test_read_requires_read_property(self):
        server, characteristic = simple_server(CharacteristicProperty.WRITE)
        with pytest.raises(GattError):
            server.read(characteristic.handle)

    def test_write_requires_write_property(self):
        server, characteristic = simple_server(CharacteristicProperty.READ)
        with pytest.raises(GattError):
            server.write(characteristic.handle, b"x")

    def test_invalid_handle(self):
        server, _ = simple_server()
        with pytest.raises(GattError):
            server.read(0x99)

    def test_value_length_limited(self):
        server, characteristic = simple_server()
        with pytest.raises(GattError):
            server.write(characteristic.handle, b"\x00" * 513)

    def test_on_write_hook_called(self):
        seen = []
        server = GattServer()
        characteristic = Characteristic(
            uuid=CHR, properties=CharacteristicProperty.WRITE, on_write=seen.append
        )
        server.add_service(Service(uuid=SVC, characteristics=[characteristic]))
        server.write(characteristic.handle, b"payload")
        assert seen == [b"payload"]

    def test_notify_reaches_subscribers(self):
        server, _ = simple_server()
        notifying = Characteristic(
            uuid=uuid.uuid4(), properties=CharacteristicProperty.NOTIFY
        )
        server.add_service(Service(uuid=uuid.uuid4(), characteristics=[notifying]))
        received = []
        server.subscribe(notifying.handle, received.append)
        count = server.notify(notifying.handle, b"ping")
        assert count == 1
        assert received == [b"ping"]

    def test_subscribe_requires_notify_property(self):
        server, characteristic = simple_server()
        with pytest.raises(GattError):
            server.subscribe(characteristic.handle, lambda v: None)

    def test_find_service_by_string_uuid(self):
        server, _ = simple_server()
        assert server.find_service(str(SVC)) is not None
        assert server.find_service(uuid.uuid4()) is None


class TestGattClient:
    def test_discovery_and_read(self):
        server, characteristic = simple_server()
        client = GattClient(server)
        services = client.discover_services()
        assert len(services) == 1
        found = client.find_characteristic(SVC, CHR)
        assert client.read(found.handle) == b"init"

    def test_unknown_service_raises(self):
        server, _ = simple_server()
        with pytest.raises(GattError):
            GattClient(server).find_characteristic(uuid.uuid4(), CHR)

    def test_unknown_characteristic_raises(self):
        server, _ = simple_server()
        with pytest.raises(GattError):
            GattClient(server).find_characteristic(SVC, uuid.uuid4())

    def test_disconnected_client_fails(self):
        server, characteristic = simple_server()
        client = GattClient(server)
        client.disconnect()
        with pytest.raises(GattError):
            client.read(characteristic.handle)
        with pytest.raises(GattError):
            client.discover_services()


class TestRelayBoard:
    def accepting_router(self):
        router = Router()
        received = []

        @router.route("POST", "/sightings")
        def post(request, params):
            received.append(request.body)
            return {"room": "kitchen"}

        return router, received

    def report(self):
        return SightingReport(
            device_id="alice",
            time=3.0,
            beacons=[RangedBeacon("1-1", -60.0, 2.0, False)],
        )

    def test_report_relayed_to_bms(self):
        router, received = self.accepting_router()
        board = RelayBoardService(router)
        client = board.connect()
        status = write_report_via_gatt(client, self.report())
        assert status == b"ok"
        assert board.reports_relayed == 1
        assert received[0]["device_id"] == "alice"
        assert received[0]["beacons"] == {"1-1": 2.0}

    def test_malformed_payload_counted(self):
        router, _ = self.accepting_router()
        board = RelayBoardService(router)
        client = board.connect()
        characteristic = client.find_characteristic(
            RELAY_SERVICE_UUID, RELAY_REPORT_CHAR_UUID
        )
        client.write(characteristic.handle, b"\xff\xfenot json")
        assert board.relay_failures == 1
        status = client.find_characteristic(
            RELAY_SERVICE_UUID, RELAY_STATUS_CHAR_UUID
        )
        assert client.read(status.handle).startswith(b"error")

    def test_bms_error_surfaces_in_status(self):
        router = Router()  # no /sightings route -> 404
        board = RelayBoardService(router)
        client = board.connect()
        status = write_report_via_gatt(client, self.report())
        assert status == b"error:404"
        assert board.relay_failures == 1

    def test_status_notifications(self):
        router, _ = self.accepting_router()
        board = RelayBoardService(router)
        client = board.connect()
        status = client.find_characteristic(
            RELAY_SERVICE_UUID, RELAY_STATUS_CHAR_UUID
        )
        notifications = []
        client.subscribe(status.handle, notifications.append)
        write_report_via_gatt(client, self.report())
        assert notifications == [b"ok"]
