"""Sharded BMS ingestion vs the single-store server at 100k devices.

The paper's server ingests one ``POST /sightings`` at a time into one
in-memory store — each post paying Python dispatch plus a per-row SVM
predict.  The sharded front door packs arriving sightings into
coalesced per-shard batches and drains them, shard by shard, through
the vectorised batch predict, so the sustained sightings/sec rate
scales far past the loose-post path.

Two things are asserted, in this order:

1. **Correctness, unconditionally**: ingest results and occupancy
   snapshots are byte-identical across shard counts (1 vs 4), and the
   sharded rooms match the single-store rooms for the same sightings.
2. **Throughput**: the sharded pipeline sustains >= 3x the
   single-store sightings/sec on hosts with >= 2 usable cores (a
   lower bar on one core).
"""

import json
import time

import numpy as np

from conftest import print_table
from repro.parallel import available_workers
from repro.server.bms import BuildingManagementServer
from repro.server.rest import Request
from repro.server.sharded import ShardedBmsService

N_DEVICES = 100_000
SINGLE_SUBSET = 2_000
POST_BATCH = 5_000
COALESCE = 1_000
SHARDS = 4

BEACON_IDS = [f"1-{i}" for i in range(1, 7)]
ROOMS = ["kitchen", "living", "bedroom"]


def _calibration_rows(seed=0):
    """Deterministic labelled fingerprints (30 per room)."""
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
    """One sighting per simulated device, constant logical time."""
    rng = np.random.default_rng(seed)
    distances = rng.uniform(0.5, 9.0, size=(n, len(BEACON_IDS)))
    return [
        {
            "device_id": f"dev-{k:06d}",
            "beacons": {b: float(row[i]) for i, b in enumerate(BEACON_IDS)},
            "time": 1.0,
        }
        for k, row in zip(range(n), distances)
    ]


def _calibrate(server, rows):
    for room, beacons in rows:
        server.add_fingerprint(room, beacons, 0.0)
    server.train()


def _single_store_rate(rows, sightings):
    """Loose-post sightings/sec of the paper's single-store server."""
    bms = BuildingManagementServer(BEACON_IDS)
    _calibrate(bms, rows)
    t0 = time.perf_counter()
    rooms = [
        bms.router.dispatch(
            Request("POST", "/sightings", body=s, time=s["time"])
        ).body["room"]
        for s in sightings
    ]
    elapsed = time.perf_counter() - t0
    return len(sightings) / elapsed, rooms


def _sharded_run(rows, sightings, shards):
    """Full sharded ingest; returns (rate, drain entries, occupancy)."""
    service = ShardedBmsService(
        BEACON_IDS,
        shards=shards,
        queue_maxsize=2 * N_DEVICES,
        coalesce_max=COALESCE,
        drain_policy="manual",
    )
    _calibrate(service, rows)
    t0 = time.perf_counter()
    for start in range(0, len(sightings), POST_BATCH):
        response = service.router.dispatch(
            Request(
                "POST",
                "/sightings/batch",
                body={"sightings": sightings[start : start + POST_BATCH]},
                time=1.0,
            )
        )
        assert response.status == 202, response
    result = service.drain()
    elapsed = time.perf_counter() - t0
    snap = service.snapshot()
    occupancy = json.dumps(
        {"time": snap.time, "rooms": snap.rooms, "devices": snap.devices},
        sort_keys=True,
    )
    return len(sightings) / elapsed, result.entries, occupancy


def test_perf_sharded_vs_single_ingest():
    cores = available_workers()
    rows = _calibration_rows()
    sightings = _sightings(N_DEVICES)

    rate_single, rooms_single = _single_store_rate(
        rows, sightings[:SINGLE_SUBSET]
    )
    rate_sharded, entries, occupancy = _sharded_run(
        rows, sightings, shards=SHARDS
    )

    # Correctness before speed, unconditionally:
    # (a) the sharded pipeline classifies exactly like the single store;
    assert [room for _, _, room in entries[:SINGLE_SUBSET]] == rooms_single
    # (b) and results are invariant to the shard count.
    _, entries_one, occupancy_one = _sharded_run(rows, sightings, shards=1)
    assert entries == entries_one
    assert occupancy == occupancy_one

    speedup = rate_sharded / rate_single
    print_table(
        f"Sharded ingestion, {N_DEVICES} devices, {SHARDS} shards",
        [
            ("single-store (sightings/s)", "-", f"{rate_single:.0f}"),
            ("sharded (sightings/s)", "-", f"{rate_sharded:.0f}"),
            ("usable cores", "-", f"{cores}"),
            ("speedup", ">= 3x on >= 2 cores", f"{speedup:.1f}x"),
        ],
    )
    if cores >= 2:
        assert speedup >= 3.0, f"sharded only {speedup:.1f}x on {cores} cores"
    else:
        # One core still amortises dispatch + predict across the batch.
        assert speedup >= 2.0, f"sharded only {speedup:.1f}x on one core"
