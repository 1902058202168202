"""The per-slot advertising schedule: the oracle for the block memo.

:func:`repro.ble.advertiser.advertisement_times` derives the advDelay
jitters 64 slots at a time with :func:`repro.sim.rng.first_random` and
memoises the blocks.  This module keeps the schedule as it reads for
one slot: a generator of the slot's own, one ``uniform`` draw, and the
slot's time tested against the window in a Python loop.  Both must
give the same floats bitwise.
"""

from typing import List

import numpy as np

from repro.ble.advertiser import ADV_DELAY_MAX_S
from repro.sim.rng import derive_seed

__all__ = ["slot_jitter", "slot_times"]


def slot_jitter(seed: int, slot: int) -> float:
    """Deterministic advDelay for one advertiser slot."""
    rng = np.random.default_rng(derive_seed(seed, f"adv-jitter:{slot}"))
    return float(rng.uniform(0.0, ADV_DELAY_MAX_S))


def slot_times(
    t_start: float,
    t_end: float,
    interval_s: float,
    *,
    seed: int = 0,
    phase_s: float = 0.0,
) -> List[float]:
    """Advertisement instants in ``[t_start, t_end)``, one slot at a time."""
    first_slot = max(0, int(np.floor((t_start - phase_s - ADV_DELAY_MAX_S) / interval_s)))
    last_slot = int(np.ceil((t_end - phase_s) / interval_s)) + 1
    times = []
    for k in range(first_slot, last_slot + 1):
        t = phase_s + k * interval_s + slot_jitter(seed, k)
        if t_start <= t < t_end:
            times.append(t)
    return times
