"""Indoor RF channel model.

Replaces the physical 2.4 GHz radio environment of the paper's testbed
with a statistical channel: log-distance path loss, spatially
correlated log-normal shadowing, Rician fast fading, per-wall material
attenuation, thermal noise and a reception-probability model, plus the
per-device receiver gain offsets behind the paper's Figure 11.
"""

from repro.radio.pathloss import (
    LogDistancePathLoss,
    distance_from_rssi,
    rssi_from_distance,
)
from repro.radio.shadowing import ShadowingField
from repro.radio.fading import RicianFading, RayleighFading
from repro.radio.materials import Material, WALL_MATERIALS, wall_loss_db
from repro.radio.devices import DeviceRadioProfile, DEVICE_PROFILES
from repro.radio.channel import ChannelModel

__all__ = [
    "LogDistancePathLoss",
    "distance_from_rssi",
    "rssi_from_distance",
    "ShadowingField",
    "RicianFading",
    "RayleighFading",
    "Material",
    "WALL_MATERIALS",
    "wall_loss_db",
    "DeviceRadioProfile",
    "DEVICE_PROFILES",
    "ChannelModel",
]
