"""The per-sighting surfacing rules: the oracle for the scanners.

:class:`repro.phone.scanner.Scanner` surfaces a listening window from
the air interface's reception columns (:class:`repro.ble.air.Reception`)
without building one object per advertisement.  This module keeps the
rules as they read one :class:`~repro.ble.air.Sighting` at a time:

- Android keeps the first sighting per (beacon id, hardware scan
  cycle), in time order;
- iOS keeps every sighting;
- each surfaced beacon gets the first of its payloads that the protocol
  sniffer decodes, and a beacon without one is dropped.

:func:`reference_cycle` applies them to ``Reception.sightings()``; the
tests compare its result with ``scan_cycle``'s on the same window.
"""

from typing import Dict, List

import numpy as np

from repro.ble.sniffer import BeaconFormat, sniff
from repro.phone.scanner import AndroidScanner

__all__ = ["android_surface", "ios_surface", "decode_payloads", "reference_cycle"]

HW_CYCLE_S = AndroidScanner.HW_CYCLE_S


def android_surface(sightings, t_start: float) -> Dict[str, List[float]]:
    """One sample per beacon per hardware scan cycle."""
    samples: Dict[str, List[float]] = {}
    seen: set = set()
    for s in sightings:
        key = (s.beacon_id, int((s.time - t_start) / HW_CYCLE_S))
        if key in seen:
            continue
        seen.add(key)
        samples.setdefault(s.beacon_id, []).append(s.rssi)
    return samples


def ios_surface(sightings, t_start: float) -> Dict[str, List[float]]:
    """Every received advertisement."""
    samples: Dict[str, List[float]] = {}
    for s in sightings:
        samples.setdefault(s.beacon_id, []).append(s.rssi)
    return samples


def decode_payloads(sightings, samples: Dict[str, List[float]]) -> dict:
    """Sniff one payload per surfaced beacon into a typed packet."""
    packets: dict = {}
    for s in sightings:
        if s.beacon_id in packets or s.beacon_id not in samples:
            continue
        result = sniff(s.payload)
        if result.format is BeaconFormat.UNKNOWN or result.packet is None:
            continue
        packet = result.packet
        if hasattr(packet, "to_ibeacon"):
            packet = packet.to_ibeacon()
        packets[s.beacon_id] = packet
    return packets


def reference_cycle(sightings, t_start: float, android: bool) -> dict:
    """What one scan cycle surfaces from ``sightings``, per sighting.

    Returns a dict with the cycle's ``samples``, ``packets``,
    ``received_count``, ``surfaced_count`` and per-beacon ``means``
    (``np.mean`` of the surfaced values).
    """
    surface = android_surface if android else ios_surface
    raw = surface(sightings, t_start)
    packets = decode_payloads(sightings, raw)
    samples = {b: v for b, v in raw.items() if b in packets}
    return {
        "samples": samples,
        "packets": packets,
        "received_count": len(sightings),
        "surfaced_count": sum(len(v) for v in samples.values()),
        "means": {b: float(np.mean(v)) for b, v in samples.items()},
    }
