"""Bluetooth relay uplink: phone -> beacon board -> HTTP -> BMS.

Section VII's alternative architecture: "a Bluetooth connection is
established between the smart device and the beacon transmitter when a
beacon is received ... a Bluetooth server in the iBeacon transmitter
(that is thought to be not-battery based) retransmits the information
received to the central server using HTTP requests."

More energy-efficient (no Wi-Fi adapter), "but it's less stable than
the Wi-Fi solution due to bugs in the BLE Android API".
"""

from __future__ import annotations

from repro.comms.uplink import Uplink

__all__ = ["BluetoothRelayUplink"]


class BluetoothRelayUplink(Uplink):
    """BT connection to the beacon board, which relays over HTTP.

    Only the BT leg costs phone battery: ``BURST_ENERGY_J`` is one BLE
    connection setup + teardown, and BT connects on demand, so there
    is no standing cost.  The BLE stack instability shows up as a
    higher per-attempt loss probability.  The board's HTTP leg is
    mains powered and nearly perfect (``RELAY_LOSS_PROBABILITY``); it
    reports the server's status back, so a 429 makes the phone re-send
    over BT.
    """

    TRANSPORT = "bt_relay"

    LOSS_PROBABILITY = 0.04
    BURST_ENERGY_J = 0.09
    ENERGY_PER_BYTE_J = 6.0e-5
    IDLE_POWER_W = 0.0
    RADIO_LEG = "bt"
    RELAY_LOSS_PROBABILITY = 0.001

    # The base send paths, entered in this class's own namespace so
    # the per-layer benchmark (perfbench/layers.py) can wrap each
    # transport's sends through the class ``__dict__``.
    send_report = Uplink.send_report
    send_batch = Uplink.send_batch
