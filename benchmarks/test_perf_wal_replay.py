"""WAL write-through overhead and replay throughput.

Durability must be close to free on the hot path: the WAL appends one
compact JSON line per applied *batch* (not per sighting), so the
sharded ingest pipeline with per-shard logs attached sustains nearly
the same sightings/sec as with logging off.  Recovery must then be
much faster than the original run: the replayer folds the log back
through the vectorised batch-ingest path, so rebuilding state covering
a long simulated span takes a small fraction of that span.

Three things are asserted, in this order:

1. **Correctness, unconditionally**: the replayed occupancy snapshot
   is byte-identical to the live run's.
2. **Overhead**: WAL-on ingest sustains >= 80% of the WAL-off
   sightings/sec in the median of 8 rounds (the contract is <10%
   overhead; the bar leaves room for timer noise on loaded CI boxes).
   Each round times a fresh WAL-off and a fresh WAL-on service back
   to back, alternating which goes first, and takes their ratio, so a
   host slowdown weighs on both halves of a round alike.
3. **Replay speed**: replay runs >= 90x faster than the simulated
   real time the log covers, on every host (it measures hundreds to
   over a thousand x on a 2-vCPU guest; replay is serial, so the core
   count does not move the floor).
"""

import json
import time

import numpy as np

from conftest import print_table, run_once
from repro.parallel import available_workers
from repro.server.replay import replay_sharded
from repro.server.rest import Request
from repro.server.sharded import ShardedBmsService

N_SIGHTINGS = 24_000
POST_BATCH = 2_000
COALESCE = 1_000
SHARDS = 4
SIM_SPAN_S = 600.0
REPLAY_FLOOR = 90.0
OVERHEAD_FLOOR = 0.80
ROUNDS = 8

BEACON_IDS = [f"1-{i}" for i in range(1, 7)]
ROOMS = ["kitchen", "living", "bedroom"]


def _calibration_rows(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(30):
        for r, room in enumerate(ROOMS):
            beacons = {
                b: float(abs(rng.normal(1.0 if i // 2 == r else 8.0, 0.5)))
                for i, b in enumerate(BEACON_IDS)
            }
            rows.append((room, beacons))
    return rows


def _sightings(n, seed=1):
    """One sighting per device, times spread over the simulated span."""
    rng = np.random.default_rng(seed)
    distances = rng.uniform(0.5, 9.0, size=(n, len(BEACON_IDS)))
    times = np.sort(rng.uniform(0.0, SIM_SPAN_S, size=n))
    return [
        {
            "device_id": f"dev-{k:06d}",
            "beacons": {b: float(row[i]) for i, b in enumerate(BEACON_IDS)},
            "time": float(t),
        }
        for k, (row, t) in enumerate(zip(distances, times))
    ]


def _make_service(rows, wal_dir=None):
    service = ShardedBmsService(
        BEACON_IDS,
        shards=SHARDS,
        queue_maxsize=2 * N_SIGHTINGS,
        coalesce_max=COALESCE,
        drain_policy="manual",
        wal_dir=wal_dir,
    )
    for room, beacons in rows:
        service.add_fingerprint(room, beacons, 0.0)
    service.train()
    return service


def _ingest_rate(service, sightings):
    """Sightings/sec through batch posts + one manual drain."""
    t0 = time.perf_counter()
    for start in range(0, len(sightings), POST_BATCH):
        response = service.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={"sightings": sightings[start : start + POST_BATCH]},
                time=sightings[start]["time"],
            )
        )
        assert response.status == 202, response
    service.drain()
    elapsed = time.perf_counter() - t0
    return len(sightings) / elapsed


def _snapshot_json(service):
    snap = service.snapshot()
    return json.dumps(
        {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices},
        sort_keys=True,
    )


def _overhead_rounds(rows, sightings, tmp_path):
    """WAL-on/WAL-off rate pairs, one per round, on fresh services.

    Even rounds time WAL-off first, odd rounds WAL-on first.  Returns
    the ``(bare, logged)`` rates per round and the last round's two
    services (the logged one's WAL still open).
    """
    pairs = []
    for k in range(ROUNDS):
        bare = _make_service(rows)
        logged = _make_service(rows, wal_dir=tmp_path / f"wal-{k}")
        if k % 2 == 0:
            bare_rate = _ingest_rate(bare, sightings)
            logged_rate = _ingest_rate(logged, sightings)
        else:
            logged_rate = _ingest_rate(logged, sightings)
            bare_rate = _ingest_rate(bare, sightings)
        pairs.append((bare_rate, logged_rate))
        if k < ROUNDS - 1:
            logged.close_wals()
    return pairs, bare, logged


def test_perf_wal_overhead_and_replay(benchmark, tmp_path):
    rows = _calibration_rows()
    sightings = _sightings(N_SIGHTINGS)

    _ingest_rate(_make_service(rows), sightings)  # warm code paths
    pairs, bare, logged = run_once(
        benchmark, _overhead_rounds, rows, sightings, tmp_path
    )
    bare.record_history(SIM_SPAN_S)
    logged.record_history(SIM_SPAN_S)
    logged.close_wals()
    wal_dir = tmp_path / f"wal-{ROUNDS - 1}"

    # Correctness first, unconditionally: byte-identical snapshots
    # live-with-WAL vs live-without, and replayed vs live.
    live_snapshot = _snapshot_json(logged)
    assert live_snapshot == _snapshot_json(bare)

    restored = _make_service(rows)
    t0 = time.perf_counter()
    report = replay_sharded(restored, wal_dir)
    replay_wall = time.perf_counter() - t0
    assert _snapshot_json(restored) == live_snapshot
    assert report.sightings == N_SIGHTINGS

    bare_rate = float(np.median([b for b, _ in pairs]))
    logged_rate = float(np.median([w for _, w in pairs]))
    ratios = [w / b for b, w in pairs]
    overhead_ratio = float(np.median(ratios))
    realtime_factor = report.span_s / replay_wall
    print_table(
        f"WAL overhead and replay throughput ({N_SIGHTINGS} sightings, "
        f"{SHARDS} shards, {SIM_SPAN_S:.0f}s sim span)",
        [
            ("usable cores", "-", f"{available_workers()}"),
            ("ingest, WAL off (sightings/s, median)", "n/a", f"{bare_rate:,.0f}"),
            ("ingest, WAL on (sightings/s, median)", "n/a", f"{logged_rate:,.0f}"),
            (
                f"wal_on/wal_off ratio (median of {ROUNDS} rounds)",
                f">= {OVERHEAD_FLOOR:.2f}",
                f"{overhead_ratio:.2f} ({min(ratios):.2f}-{max(ratios):.2f})",
            ),
            ("replay wall (s)", "n/a", f"{replay_wall:.2f}"),
            (
                "replay realtime factor",
                f">= {REPLAY_FLOOR:.0f}x",
                f"{realtime_factor:.0f}x",
            ),
        ],
    )
    assert overhead_ratio >= OVERHEAD_FLOOR, (
        f"WAL overhead too high: median ratio {overhead_ratio:.2f} "
        f"over rounds {[round(r, 2) for r in ratios]}"
    )
    assert realtime_factor >= REPLAY_FLOOR, (
        f"replay only {realtime_factor:.1f}x real time"
    )
