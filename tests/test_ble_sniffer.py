"""Tests for raw-payload protocol sniffing."""

import uuid

from hypothesis import given, strategies as st

from repro.ble.sniffer import BeaconFormat, decode_ibeacon, identify_format, sniff
from repro.ibeacon.altbeacon import AltBeaconPacket
from repro.ibeacon.packet import IBeaconPacket

UUID_A = uuid.UUID("f7826da6-4fa2-4e98-8024-bc5b71e0893e")


def ibeacon(major=1, minor=2):
    return IBeaconPacket(uuid=UUID_A, major=major, minor=minor, tx_power=-59)


def altbeacon(major=1, minor=2):
    return AltBeaconPacket(uuid=UUID_A, major=major, minor=minor, tx_power=-59)


class TestIdentify:
    def test_ibeacon_payload(self):
        assert identify_format(ibeacon().encode()) is BeaconFormat.IBEACON

    def test_altbeacon_payload(self):
        assert identify_format(altbeacon().encode()) is BeaconFormat.ALTBEACON

    def test_garbage_is_unknown(self):
        assert identify_format(b"\x00\x01\x02") is BeaconFormat.UNKNOWN

    def test_empty_is_unknown(self):
        assert identify_format(b"") is BeaconFormat.UNKNOWN


class TestSniff:
    def test_ibeacon_decoded(self):
        result = sniff(ibeacon(major=7).encode())
        assert result.format is BeaconFormat.IBEACON
        assert result.packet.major == 7
        assert result.identity == (UUID_A, 7, 2)

    def test_altbeacon_decoded(self):
        result = sniff(altbeacon(minor=9).encode())
        assert result.format is BeaconFormat.ALTBEACON
        assert result.identity == (UUID_A, 1, 9)

    def test_identity_is_format_independent(self):
        assert sniff(ibeacon().encode()).identity == sniff(
            altbeacon().encode()
        ).identity

    def test_truncated_ibeacon_degrades_to_unknown(self):
        payload = ibeacon().encode()[:20]
        result = sniff(payload)
        assert result.format is BeaconFormat.UNKNOWN
        assert result.packet is None
        assert result.identity is None

    def test_unknown_payload(self):
        result = sniff(b"\xde\xad\xbe\xef")
        assert result.format is BeaconFormat.UNKNOWN

    @given(noise=st.binary(min_size=0, max_size=40))
    def test_never_raises_on_arbitrary_bytes(self, noise):
        result = sniff(noise)
        assert isinstance(result.format, BeaconFormat)

    @given(
        major=st.integers(0, 0xFFFF),
        minor=st.integers(0, 0xFFFF),
    )
    def test_sniff_roundtrip_ibeacon(self, major, minor):
        packet = ibeacon(major=major, minor=minor)
        result = sniff(packet.encode())
        assert result.packet == packet


class TestDecodeIbeacon:
    """The rule behind ``AirInterface.decoded``, which both fleet drives read."""

    def test_ibeacon_decoded_as_is(self):
        assert decode_ibeacon(ibeacon(minor=4).encode()) == ibeacon(minor=4)

    def test_altbeacon_normalised_to_the_ibeacon_identity(self):
        assert decode_ibeacon(altbeacon(minor=9).encode()) == ibeacon(minor=9)

    def test_undecodable_payload_is_none(self):
        assert decode_ibeacon(b"\xde\xad\xbe\xef") is None
        assert decode_ibeacon(ibeacon().encode()[:-3]) is None
