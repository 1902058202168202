"""Smartphone energy model.

Reproduces the Section VII study: a component power-state model of the
handset (CPU base load, BLE scanning, uplink radio), a battery with
the S3 Mini's capacity, and an energy meter that integrates component
power over the simulated run - the software equivalent of the authors'
battery-logging VeryNice app.  Also implements the paper's future-work
proposal: accelerometer-gated sensing (Section VIII).
"""

from repro.energy.profiles import PhoneEnergyProfile, PHONE_ENERGY_PROFILES
from repro.energy.battery import Battery
from repro.energy.meter import EnergyMeter, EnergyBreakdown
from repro.energy.gating import AccelerometerGate

__all__ = [
    "PhoneEnergyProfile",
    "PHONE_ENERGY_PROFILES",
    "Battery",
    "EnergyMeter",
    "EnergyBreakdown",
    "AccelerometerGate",
]
