"""Parallel fleet execution: wall-clock speedup, identical answer.

The deterministic shard engine promises two things: (1) sharded fleet
runs scale with the worker pool, and (2) the worker count never
changes the result.  This benchmark measures (1) and asserts (2)
unconditionally.  The hard >= 2x speedup bar applies on hosts with at
least four usable cores; containers pinned to fewer CPUs cannot
physically show it and only assert the invariance plus a bounded
overhead.
"""

import time

from conftest import print_table

from repro.building.presets import two_room_corridor
from repro.fleet import FleetLoadGenerator
from repro.parallel import available_workers

SHARDS = 4
POOL = 4


def _timed(fn, repeats=2):
    """Best-of-N wall time of ``fn`` (seconds) and its last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


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


def test_perf_parallel_fleet_speedup():
    cores = available_workers()
    t_serial, serial = _timed(lambda: _sharded_fleet(1))
    t_pool, pooled = _timed(lambda: _sharded_fleet(POOL))

    # The acceptance property first: the answer never depends on the
    # worker count, whatever this host's core budget.
    assert pooled == serial

    speedup = t_serial / t_pool
    floor = 2.0 if cores >= 4 else 1.2
    print_table(
        f"Parallel fleet run, {SHARDS} shards, {POOL} workers",
        [
            ("usable cores", "-", f"{cores}"),
            ("serial (s)", "-", f"{t_serial:.2f}"),
            (f"{POOL} workers (s)", "-", f"{t_pool:.2f}"),
            (
                "speedup",
                f">= {floor:g}x" if cores >= 2 else "pool <= 3x serial",
                f"{speedup:.2f}x",
            ),
        ],
    )

    if cores >= 2:
        assert speedup >= floor, f"pool only {speedup:.2f}x faster on {cores} cores"
    else:
        # Single usable core: parallelism cannot win wall clock; the
        # pool must still finish within reasonable overhead of serial.
        assert t_pool <= t_serial * 3.0, (
            f"pool run {t_pool:.2f}s vs serial {t_serial:.2f}s on one core"
        )
