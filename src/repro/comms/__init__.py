"""Uplink channels between the phone app and the BMS.

The paper evaluates two ways to deliver sighting reports (Section VII):

- **Wi-Fi**: the phone posts HTTP requests directly to the server.
  Reliable and stable, but forces the Wi-Fi adapter on, which is the
  dominant energy cost.
- **Bluetooth relay**: the phone opens a BT connection to the
  (mains-powered) beacon board, which relays the report to the server
  over HTTP.  ~15 % more energy-efficient, but less stable because of
  BLE stack bugs.

Each transport is a table of constants over :class:`Uplink`, which
holds the one delivery loop: radio attempts and retries, the relay hop
when the transport has one, 429 backpressure and the delivery ledger.
Both deliver real :class:`~repro.server.rest.Request` objects, built by
:class:`~repro.server.client.BmsClient`, to the BMS router and account
their radio energy per burst.  With a :class:`BatchPolicy` either
uplink buffers reports and delivers them as one
``POST /sightings/batch`` request, paying the burst energy once per
batch.
"""

from repro.comms.uplink import BatchPolicy, DeliveryStats, Uplink
from repro.comms.wifi import WifiUplink
from repro.comms.bt_relay import BluetoothRelayUplink

__all__ = [
    "BatchPolicy",
    "DeliveryStats",
    "Uplink",
    "WifiUplink",
    "BluetoothRelayUplink",
]
