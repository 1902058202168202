"""Wi-Fi uplink: HTTP directly from the phone to the BMS.

"The Wi-Fi is more reliable and stable but forces to keep on the
wireless adapter that has a high power consumption" (Section VII).

Energy constants are calibrated so that the full app draw on the
reference handset (S3 Mini class battery, 5.7 Wh) yields the paper's
~10 h battery life - see ``repro/energy/profiles.py`` for the budget.
"""

from __future__ import annotations

from repro.comms.uplink import Uplink

__all__ = ["WifiUplink"]


class WifiUplink(Uplink):
    """Direct HTTP over Wi-Fi: the stable channel, no relay hop.

    ``BURST_ENERGY_J`` is the radio wake + association + tail energy
    of one transmission burst; it dominates small sighting payloads,
    so batching N reports costs roughly one burst instead of N.
    ``IDLE_POWER_W`` keeps the adapter associated while the app runs.
    """

    TRANSPORT = "wifi"

    LOSS_PROBABILITY = 0.005
    BURST_ENERGY_J = 0.06
    ENERGY_PER_BYTE_J = 1.6e-4
    IDLE_POWER_W = 0.080
