"""BLE link layer: advertisers, the air interface, and scan settings.

Models the over-the-air behaviour between the beacon transmitters and
the phones: periodic advertising with the spec-mandated random delay,
and the sampling of those advertisements through the RF channel during
a scan window.
"""

from repro.ble.advertiser import Advertiser, advertisement_times
from repro.ble.air import AirInterface, Reception, Sighting
from repro.ble.scanner_params import ScanSettings

__all__ = [
    "Advertiser",
    "advertisement_times",
    "AirInterface",
    "Reception",
    "Sighting",
    "ScanSettings",
]
