"""Beacon advertisers: when does each transmitter emit a packet?

Per the BLE specification, an advertiser transmits one advertising
event every ``advInterval + advDelay`` where ``advDelay`` is a random
0-10 ms jitter that prevents two advertisers from colliding forever.
Apple's recommended iBeacon interval is 100 ms (the bluez ``hcitool``
setup of the paper uses the same default).

Advertisement times are generated *deterministically* from the beacon
id and the slot index, so any time window can be queried statelessly
and repeatably.  Slot ``k``'s advDelay is the first
``uniform(0, ADV_DELAY_MAX_S)`` draw of a generator seeded with
``derive_seed(seed, f"adv-jitter:{k}")``.  The jitters are derived 64
slots at a time: :func:`repro.sim.rng.derive_seeds` gives the block's
seeds as one array and :func:`repro.sim.rng.first_random` their draws,
bitwise that draw without building a generator: it runs NumPy's
SeedSequence mixing on arrays and PCG64's seeding and first step in
closed form (its docstring gives the argument).  A fresh slot costs
about 3 µs this way against 21 µs for a generator of its own (2-vCPU
guest), and a paper-house drive (8 phones, 120 s) builds no jitter
generator where it built 5,600.  The blocks are memoised process-wide
(see :data:`_JITTER_MEMO_SIZE`); ``tests/advertiser_oracle.py`` keeps
the per-slot generator and loop as the oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.building.floorplan import BeaconPlacement
from repro.sim.rng import derive_seed, derive_seeds, first_random

__all__ = ["ADV_DELAY_MAX_S", "advertisement_times", "Advertiser"]

#: Maximum pseudo-random advertising delay (BLE spec: 0-10 ms).
ADV_DELAY_MAX_S = 0.010

#: Slots per entry of the advDelay memo, all derived in one
#: ``first_random`` call.
_JITTER_BLOCK = 64

#: Entries (64-slot blocks of one advertiser) of the process-wide
#: advDelay memo, least recently used out first: 16 x 64 = 1,024
#: slots, the capacity of the per-slot memo the blocks replaced, in
#: 8 kB of arrays.  The 34 calibration walks each re-scan the first
#: seconds of every beacon (a 300 s survey reads two blocks per
#: beacon, ten in all), so those repeats hit.  No 120 s drive fits
#: (5 beacons x 1,200 slots, 94 blocks), and none needs to: its
#: windows move forward, so each block serves about three 2 s windows
#: and is not asked for again.
_JITTER_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_JITTER_MEMO_SIZE)
def _jitter_block(seed: int, block: int) -> np.ndarray:
    """advDelay of slots ``64 * block`` to ``64 * block + 63`` (memoised).

    The array is shared by every caller, so it is read-only.
    """
    slots = range(block * _JITTER_BLOCK, (block + 1) * _JITTER_BLOCK)
    seeds = derive_seeds(seed, [f"adv-jitter:{k}" for k in slots])
    # Generator.uniform(low, high) is low + (high - low) * random(),
    # which for low = 0 is high * random() exactly.
    jitter = ADV_DELAY_MAX_S * first_random(seeds)
    jitter.flags.writeable = False
    return jitter


def _jitters(seed: int, first_slot: int, last_slot: int) -> np.ndarray:
    """advDelay of slots ``first_slot`` to ``last_slot`` inclusive."""
    first_block = first_slot // _JITTER_BLOCK
    last_block = last_slot // _JITTER_BLOCK
    if first_block == last_block:
        jitter = _jitter_block(seed, first_block)
    else:
        jitter = np.concatenate(
            [_jitter_block(seed, b) for b in range(first_block, last_block + 1)]
        )
    offset = first_block * _JITTER_BLOCK
    return jitter[first_slot - offset : last_slot - offset + 1]


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
    first_slot = max(0, math.floor((t_start - phase_s - ADV_DELAY_MAX_S) / interval_s))
    last_slot = math.ceil((t_end - phase_s) / interval_s) + 1
    if last_slot < first_slot:
        return []
    slots = np.arange(first_slot, last_slot + 1)
    times = phase_s + slots * interval_s + _jitters(seed, first_slot, last_slot)
    return times[(t_start <= times) & (times < t_end)].tolist()


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
