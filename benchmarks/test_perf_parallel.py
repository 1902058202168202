"""Parallel fleet execution: wall-clock speedup, identical answer.

The deterministic shard engine promises two things: (1) sharded fleet
runs scale with the worker pool, and (2) the worker count never
changes the result.  This benchmark measures (1) and asserts (2)
unconditionally.  The hard >= 2x speedup bar applies on hosts with at
least four usable cores; containers pinned to fewer CPUs cannot
physically show it and only assert the invariance plus a bounded
overhead.

The speedup is the median over ``ROUNDS`` rounds of one serial and one
pooled run back to back, alternating which goes first, so a host
slowdown weighs on both halves of a round alike.  The fleet is small
enough that the pool's start-up cost is a visible share of each run,
and single best-of-N timings of it flipped across the floor with host
noise.
"""

import time

import numpy as np

from conftest import print_table
from repro.building.presets import two_room_corridor
from repro.fleet import FleetLoadGenerator
from repro.parallel import available_workers

SHARDS = 4
POOL = 4
ROUNDS = 16


def _sharded_fleet(workers):
    return FleetLoadGenerator(
        devices=8,
        duration_s=40.0,
        batch_size=4,
        batch_delay_s=8.0,
        calibration_s=120.0,
        seed=3,
        plan=two_room_corridor(),
        shards=SHARDS,
        workers=workers,
    ).run()


def _timed(workers):
    t0 = time.perf_counter()
    report = _sharded_fleet(workers)
    return time.perf_counter() - t0, report


def _rounds():
    """``(serial_s, pooled_s)`` per round; even rounds run serial first.

    Every round asserts the acceptance property first: the answer
    never depends on the worker count, whatever this host's core
    budget.
    """
    pairs = []
    for k in range(ROUNDS):
        if k % 2 == 0:
            (t_serial, serial), (t_pool, pooled) = _timed(1), _timed(POOL)
        else:
            (t_pool, pooled), (t_serial, serial) = _timed(POOL), _timed(1)
        assert pooled == serial
        pairs.append((t_serial, t_pool))
    return pairs


def test_perf_parallel_fleet_speedup():
    cores = available_workers()
    pairs = _rounds()
    ratios = [t_serial / t_pool for t_serial, t_pool in pairs]
    speedup = float(np.median(ratios))
    floor = 2.0 if cores >= 4 else 1.2
    print_table(
        f"Parallel fleet run, {SHARDS} shards, {POOL} workers",
        [
            ("usable cores", "-", f"{cores}"),
            ("serial (s, median)", "-", f"{np.median([s for s, _ in pairs]):.2f}"),
            (f"{POOL} workers (s, median)", "-", f"{np.median([p for _, p in pairs]):.2f}"),
            (
                f"speedup (median of {ROUNDS} rounds)",
                f">= {floor:g}x" if cores >= 2 else "pool <= 3x serial",
                f"{speedup:.2f}x ({min(ratios):.2f}-{max(ratios):.2f})",
            ),
        ],
    )

    if cores >= 2:
        assert speedup >= floor, (
            f"pool only {speedup:.2f}x faster on {cores} cores over rounds "
            f"{[round(r, 2) for r in ratios]}"
        )
    else:
        # Single usable core: parallelism cannot win wall clock; the
        # pool must still finish within reasonable overhead of serial.
        assert speedup >= 1.0 / 3.0, (
            f"pool run {1.0 / speedup:.2f}x the serial time on one core"
        )
