"""Beacon advertisers: when does each transmitter emit a packet?

Per the BLE specification, an advertiser transmits one advertising
event every ``advInterval + advDelay`` where ``advDelay`` is a random
0-10 ms jitter that prevents two advertisers from colliding forever.
Apple's recommended iBeacon interval is 100 ms (the bluez ``hcitool``
setup of the paper uses the same default).

Advertisement times are generated *deterministically* from the beacon
id and the slot index, so any time window can be queried statelessly
and repeatably.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.building.floorplan import BeaconPlacement
from repro.sim.rng import derive_seed

__all__ = ["ADV_DELAY_MAX_S", "advertisement_times", "Advertiser"]

#: Maximum pseudo-random advertising delay (BLE spec: 0-10 ms).
ADV_DELAY_MAX_S = 0.010

#: Entries of the process-wide advDelay memo.  Every phone scanning a
#: window, and every calibration walk re-scanning the same first
#: windows, asks for the same (beacon, slot) jitters; 1,024 holds the
#: slots those repeats revisit while staying a few hundred kB.
_JITTER_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=_JITTER_MEMO_SIZE)
def _slot_jitter(seed: int, slot: int) -> float:
    """Deterministic advDelay for a given advertiser slot (memoised)."""
    rng = np.random.default_rng(derive_seed(seed, f"adv-jitter:{slot}"))
    return float(rng.uniform(0.0, ADV_DELAY_MAX_S))


def advertisement_times(
    t_start: float,
    t_end: float,
    interval_s: float,
    *,
    seed: int = 0,
    phase_s: float = 0.0,
) -> List[float]:
    """Advertisement instants in ``[t_start, t_end)``.

    Each slot ``k`` transmits at ``phase + k * interval + jitter(k)``.

    Args:
        t_start: window start (inclusive), seconds.
        t_end: window end (exclusive), seconds.
        interval_s: nominal advertising interval.
        seed: advertiser identity seed (jitter stream).
        phase_s: fixed phase offset of slot 0.

    Raises:
        ValueError: non-positive interval or inverted window.
    """
    if interval_s <= 0.0:
        raise ValueError(f"interval must be positive, got {interval_s}")
    if t_end < t_start:
        raise ValueError(f"window is inverted: [{t_start}, {t_end})")
    # Slots whose nominal time could fall in the window, padded by the
    # maximum jitter on both sides.
    first_slot = max(0, int(np.floor((t_start - phase_s - ADV_DELAY_MAX_S) / interval_s)))
    last_slot = int(np.ceil((t_end - phase_s) / interval_s)) + 1
    times = []
    for k in range(first_slot, last_slot + 1):
        t = phase_s + k * interval_s + _slot_jitter(seed, k)
        if t_start <= t < t_end:
            times.append(t)
    return times


@dataclass(frozen=True)
class Advertiser:
    """A beacon placement bound to its advertising schedule."""

    placement: BeaconPlacement
    phase_s: float = 0.0

    @property
    def seed(self) -> int:
        """Jitter seed derived from the beacon identity."""
        return derive_seed(0xB1E, self.placement.beacon_id)

    def times_in(self, t_start: float, t_end: float) -> List[float]:
        """Advertisement instants of this beacon in ``[t_start, t_end)``."""
        return advertisement_times(
            t_start,
            t_end,
            self.placement.advertising_interval_s,
            seed=self.seed,
            phase_s=self.phase_s,
        )
