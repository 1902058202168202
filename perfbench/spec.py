"""What the pipeline benchmark measures: workloads, metrics and bounds.

This module is the single source of truth for the benchmark's shape.
``run.py`` reads the metric definitions from here, and
``python3 perfbench/spec.py`` prints the ``BENCHMARK.json`` document the
repository root carries, so the two never drift apart.

Every end-to-end metric is reported on every workload (a benchmark run
prints all of them), so each has one definition per workload kind: the
two simulated workloads drive the whole per-phone stack, the stream
workload drives the server alone.  A few more are printed with no
bound (``UNBOUNDED_END_TO_END``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seconds one benchmark run measures (repetitions continue until this
#: much wall time has passed).
RUN_SECONDS = 20

#: Simulated occupants of ``paper-house`` and ``fleet-columnar``.
PAPER_OCCUPANTS = 8
FLEET_OCCUPANTS = 64
#: Simulated online-detection span of each sim repetition, seconds.
DRIVE_S = 120.0
#: Operator calibration walk (survey) span, seconds; the ``fleet`` CLI
#: default, shared by every workload.
CALIBRATION_S = 300.0
#: Operator walk whose labelled rows feed the refresh phase, seconds.
REFRESH_WALK_S = 300.0
#: ``POST /model/refresh`` calls per repetition (one re-surveyed room
#: each) and fingerprints per call.
REFRESHES = 5
REFRESH_ROWS = 12
#: Recoveries timed per sim repetition (recovery only reads the state
#: directory; the stream's takes seconds, so it recovers once).
SIM_RECOVERIES = 3
#: CPU seconds of set-up at the nominal pace timed per repetition: the
#: repetition's own set-up, then more from a cold Gram cache into
#: throwaway state directories until their total reaches this (3 on
#: the sims, about 8 on the stream).  ``setup_s`` is the median over
#: all of a run's set-ups.
SETUP_S_PER_REP = 1.5
#: Pace samples (``pace.py``) taken before and after each set-up and
#: recovery.
PACE_EDGE = 3
#: Fleet uplink batching (the ``repro.fleet`` defaults).
FLEET_BATCH_SIZE = 16
FLEET_BATCH_DELAY_S = 10.0

#: ``bms-stream`` sizes.
STREAM_DEVICES = 2000
STREAM_SHARDS = 4
#: The stream's traffic is what the program's uplinks emit (see
#: ``stream.py``; ``python3 perfbench/traffic.py`` measures it).  In
#: ``repro.fleet`` runs of 64 devices for 120 s with 4 service shards,
#: seed 0, the paper's per-report Bluetooth relay posted 3,828 loose
#: ``POST /sightings`` (one per device per 2 s scan period, less relay
#: loss), and the fleet's ``BatchPolicy(16, 10 s)`` posted 640
#: ``POST /sightings/batch`` of exactly 6 rows over Wi-Fi (637 over
#: the Bluetooth relay): one per device per 6 scan periods.
#: Half of the devices run each uplink, so each ingest path carries
#: half of the sightings; that split is the benchmark's choice.
STREAM_BATCHED_SHARE = 0.5
STREAM_BATCH_ROWS = 6
#: Open-loop rate, sightings per second at the nominal pace (a host
#: running x times slower plays the schedule x times slower).  Set
#: once, at about a third of the closed-loop capacity timed as
#: measured on a 2-core x86-64 guest (3.3-3.5k sightings/s); at the
#: nominal pace the capacity reads 4.8k/s, so this is about a fifth of
#: it.  At 1,600/s, a third of that, the open-loop p50s spread by
#: 12-13 % between seeds against 4-5 % here.  The fleet reports 1,000
#: sightings per logical second (2,000 devices, one per 2 s), so
#: logical time runs at ``STREAM_NOMINAL_SPS / 1000`` times wall time.
STREAM_NOMINAL_SPS = 1000.0
#: Scan periods per repetition in the open-loop and closed-loop phases
#: (2,000 sightings each).
STREAM_OPEN_PERIODS = 3
STREAM_CLOSED_PERIODS = 2
#: Scan period: every device reports once per 2 s of logical time.
SCAN_PERIOD_S = 2.0
#: Operator walk whose rows are the stream's beacon vectors, seconds.
STREAM_WALK_S = 600.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: List[Workload] = [
    Workload(
        "paper-house",
        "Paper config, 8 occupants, 120 s, WAL on, loose POSTs: the per-phone "
        "stack, single-row ingest and predict, the sighting WAL record and "
        "replay do the work",
    ),
    Workload(
        "fleet-columnar",
        "64 occupants, 120 s, Wi-Fi batches of 16, no WAL: vectorised drive, "
        "batch ingest and multi-row predict; bypass case for the scalar "
        "stack, WAL and replay",
    ),
    Workload(
        "bms-stream",
        "Server only: 4 shards, WAL per shard, 2000 devices half on loose "
        "and half on 6-row batch posts with per-device reads, open loop at "
        "1000/s, refresh, closed loop, compaction, recovery",
    ),
]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Bounds.  Every timing is at the nominal pace (``pace.py``): the
#: 2-vCPU guest the benchmark was built on ran the same code up to 1.5x
#: slower from one minute to the next, on the CPU clock too, and two
#: sets of ten runs taken as measured spread by 14-48 % between their
#: quartiles.  Scaled to the nominal pace, the spreads are 2-10 %.  The
#: timings keep the largest bound allowed, 0.25, for hosts noisier
#: still; a 2x slowdown of a layer is therefore caught where the layer
#: holds more than about a third of the metric's time.  See
#: ``workloads.cpu_time`` for which clock times what.
END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "Median over the run's set-ups (SETUP_S_PER_REP per repetition) of "
        "construction, calibration, training, and the state directory's "
        "manifest and calibration snapshot (sims: the operator walk; "
        "stream: the fingerprint load).  CPU clock, nominal pace.",
    ),
    EndToEnd(
        "drive_device_s_per_s", "device_s/s", "higher", 0.25,
        "Device-seconds of scan data taken in per CPU second at the nominal "
        "pace, over every repetition: sims, occupants x 2 s per simulated "
        "scan period / the periods' time; stream, sightings x 2 s / the "
        "closed-loop posts' time.",
    ),
    EndToEnd(
        "ingest_capacity_sps", "sightings/s", "higher", 0.25,
        "Sightings per CPU second spent in sighting POSTs at the nominal "
        "pace, over every repetition: stream, the closed-loop phase; sims, "
        "the uplinks' posts during the drive.",
    ),
    EndToEnd(
        "accuracy", "fraction", "higher", 0.2,
        "Share of estimates matching the ground-truth room: sims, the "
        "evaluation points; stream, the open-loop labels against the walk "
        "the vectors came from.  Deterministic per seed.",
    ),
    EndToEnd(
        "delivery_ratio", "fraction", "higher", 0.02,
        "Sims: delivered / attempted uplink reports.  Stream: sightings "
        "answered 2xx with a room / sightings posted.  Deterministic per "
        "seed.",
    ),
    EndToEnd(
        "ingest_p50_ms", "ms", "lower", 0.25,
        "Median per sighting, from its request's due time until the POST "
        "returns with it applied, at the nominal pace: stream, open-loop "
        "schedule, wall clock; sims, closed loop (due = send), CPU clock.",
    ),
    EndToEnd(
        "read_p50_ms", "ms", "lower", 0.25,
        "Median occupancy read, from its due time until it returns, at the "
        "nominal pace: stream, GET /devices/<id>/location and GET /occupancy "
        "on schedule, wall clock; sims, the detection loop's per-device "
        "reads (snapshot / device_room_at), CPU clock.",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.1,
        "Peak resident set of the process, which ran only this workload.",
    ),
]

#: Printed beside the bounded metrics, never bounded.  Bounds cannot
#: exceed 0.25, and these spread wider than that from run to run on the
#: 2-vCPU guest the benchmark was built on.  ``refresh_s`` and
#: ``recover_s`` are sub-second, SMO-heavy phases that swing more than
#: the rest with the guest's speed: ten-seed IQR/median of 11 % and
#: 24 % (refresh) and 15 % and 31 % (recovery) on paper-house in two
#: sets of runs of the same code, taken before timings were scaled to
#: the nominal pace and not measured again since.  The p99s are set by stalls:
#: whole-process pauses (collector, host preemption) and, on
#: bms-stream, the merged snapshot that each period's history mark and
#: ``GET /occupancy`` build while posts queue behind them.
#: ``failed_ratio`` is 0 when nothing fails.
UNBOUNDED_END_TO_END = [
    ("refresh_s", "s", "lower",
     "Median time of the refresh phase's POST /model/refresh calls (one "
     "re-surveyed room each).  CPU clock, nominal pace."),
    ("recover_s", "s", "lower",
     "Median time from a closed state directory to a rebuilt, replayed "
     "server via server_from_manifest (fleet-columnar keeps no WAL, so it "
     "reloads only the calibration snapshot).  CPU clock, nominal pace."),
    ("ingest_p99_ms", "ms", "lower",
     "99th percentile of the per-sighting ingest latency."),
    ("read_p99_ms", "ms", "lower",
     "99th percentile of the occupancy read latency."),
    ("failed_ratio", "fraction", "lower",
     "REST responses outside 2xx (429 included) plus raised errors / "
     "requests attempted."),
]


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    on: str


PH, FC, BS = "paper-house", "fleet-columnar", "bms-stream"
SIMS = f"{PH}, {FC}"
ALL = f"{PH}, {FC}, {BS}"

PER_LAYER: List[PerLayer] = [
    PerLayer("sim.events", "count", "lower", "drive_device_s_per_s", PH),
    PerLayer("sim.busy_s", "s", "lower", "drive_device_s_per_s", PH),
    PerLayer("building.position_calls", "count", "lower", "drive_device_s_per_s", SIMS),
    PerLayer("building.busy_s", "s", "lower", "drive_device_s_per_s", SIMS),
    PerLayer("radio.links", "count", "lower", "drive_device_s_per_s; setup_s", SIMS),
    PerLayer("radio.received_ratio", "fraction", "higher", "accuracy", SIMS),
    PerLayer("radio.busy_s", "s", "lower", "drive_device_s_per_s (paper-house); setup_s (both sims)", SIMS),
    PerLayer("ble.windows", "count", "lower", "drive_device_s_per_s; setup_s", SIMS),
    PerLayer("ble.busy_s", "s", "lower", "drive_device_s_per_s (paper-house); setup_s (both sims)", SIMS),
    PerLayer("phone.cycles", "count", "lower", "drive_device_s_per_s; setup_s", PH),
    PerLayer("phone.reports", "count", "higher", "drive_device_s_per_s", PH),
    PerLayer("phone.surfaced_ratio", "fraction", "higher", "accuracy", PH),
    PerLayer("phone.busy_s", "s", "lower", "drive_device_s_per_s; setup_s", PH),
    PerLayer("filters.updates", "count", "lower", "drive_device_s_per_s", PH),
    PerLayer("filters.busy_s", "s", "lower", "drive_device_s_per_s", PH),
    PerLayer("energy.busy_s", "s", "lower", "drive_device_s_per_s", SIMS),
    PerLayer("comms.reports", "count", "higher", "delivery_ratio", SIMS),
    PerLayer("comms.requests", "count", "lower", "drive_device_s_per_s", SIMS),
    PerLayer("comms.reports_per_request", "count", "higher", "drive_device_s_per_s; accuracy", SIMS),
    PerLayer("comms.retries", "count", "lower", "delivery_ratio", SIMS),
    PerLayer("comms.dropped", "count", "lower", "delivery_ratio", SIMS),
    PerLayer("comms.busy_s", "s", "lower", "drive_device_s_per_s", SIMS),
    PerLayer("fleet.columnar.ticks", "count", "lower", "drive_device_s_per_s", FC),
    PerLayer("fleet.columnar.busy_s", "s", "lower", "drive_device_s_per_s", FC),
    PerLayer("server.rest.requests", "count", "lower", "drive_device_s_per_s; ingest_p50_ms", ALL),
    PerLayer("server.rest.failed", "count", "lower", "failed_ratio", ALL),
    PerLayer("server.rest.busy_s", "s", "lower", "drive_device_s_per_s (paper-house); ingest_p50_ms (bms-stream)", ALL),
    PerLayer("server.sharded.rows_per_ingest", "count", "higher", "ingest_capacity_sps", BS),
    PerLayer("server.sharded.rejected", "count", "lower", "failed_ratio", BS),
    PerLayer("server.sharded.busy_s", "s", "lower", "ingest_p50_ms; ingest_capacity_sps; read_p50_ms", BS),
    PerLayer("server.bms.sightings", "count", "higher", "ingest_capacity_sps", ALL),
    PerLayer("server.bms.ingest_calls", "count", "lower", "ingest_capacity_sps", ALL),
    PerLayer("server.bms.ingest_busy_s", "s", "lower", "drive_device_s_per_s (sims); ingest_p50_ms, ingest_capacity_sps (bms-stream)", ALL),
    PerLayer("server.bms.reads", "count", "lower", "read_p50_ms", ALL),
    PerLayer("server.bms.read_busy_s", "s", "lower", "read_p50_ms; drive_device_s_per_s (paper-house)", ALL),
    PerLayer("server.bms.history_busy_s", "s", "lower", "ingest_p99_ms (bms-stream, unbounded)", ALL),
    PerLayer("server.bms.busy_s", "s", "lower", "ingest_capacity_sps; setup_s", ALL),
    PerLayer("ml.predict_calls", "count", "lower", "drive_device_s_per_s (paper-house); ingest_capacity_sps (bms-stream)", ALL),
    PerLayer("ml.rows_per_predict", "count", "higher", "ingest_capacity_sps", ALL),
    PerLayer("ml.predict_busy_s", "s", "lower", "drive_device_s_per_s (paper-house); ingest_capacity_sps (bms-stream)", ALL),
    PerLayer("ml.featurize_busy_s", "s", "lower", "ingest_capacity_sps", ALL),
    PerLayer("ml.fit_busy_s", "s", "lower", "setup_s; recover_s (bms-stream: 4 shard fits)", ALL),
    PerLayer("ml.refresh_busy_s", "s", "lower", "refresh_s; recover_s", ALL),
    PerLayer("ml.refresh_refit_ratio", "fraction", "lower", "refresh_s", ALL),
    PerLayer("ml.gram_hit_ratio", "fraction", "higher", "setup_s; refresh_s; recover_s", ALL),
    PerLayer("ml.busy_s", "s", "lower", "ingest_capacity_sps; setup_s", ALL),
    PerLayer("traces.wal.records", "count", "lower", "recover_s", f"{PH}, {BS}"),
    PerLayer("traces.wal.bytes_per_sighting", "bytes", "lower", "recover_s", f"{PH}, {BS}"),
    PerLayer("traces.wal.segments", "count", "lower", "recover_s", f"{PH}, {BS}"),
    PerLayer("traces.wal.append_busy_s", "s", "lower", "drive_device_s_per_s (paper-house); ingest_p50_ms, ingest_capacity_sps (bms-stream)", f"{PH}, {BS}"),
    PerLayer("traces.wal.compact_busy_s", "s", "lower", "recover_s", BS),
    PerLayer("traces.wal.busy_s", "s", "lower", "ingest_capacity_sps; recover_s", f"{PH}, {BS}"),
    PerLayer("server.replay.records", "count", "lower", "recover_s", f"{PH}, {BS}"),
    PerLayer("server.replay.sightings_per_s", "sightings/s", "higher", "recover_s", f"{PH}, {BS}"),
    PerLayer("server.replay.busy_s", "s", "lower", "recover_s", ALL),
    PerLayer("server.persistence.busy_s", "s", "lower", "setup_s; recover_s", ALL),
    PerLayer("core.calibration_busy_s", "s", "lower", "setup_s", SIMS),
    PerLayer("loadgen.late_p99_ms", "ms", "lower", "keeps ingest_p99_ms honest", BS),
    PerLayer("loadgen.backlog_max", "count", "lower", "keeps ingest_p99_ms honest", BS),
    PerLayer("loadgen.busy_s", "s", "lower", "none (generator waits and scheduling)", BS),
    PerLayer("pace.busy_s", "s", "lower", "none (the benchmark's pace samples, pace.py)", ALL),
    PerLayer("trace.wall_s", "s", "lower", "all (traced repetition)", ALL),
    PerLayer("trace.unattributed_s", "s", "lower", "none (remainder no wrapper covers)", ALL),
    PerLayer("trace.unattributed_share", "fraction", "lower", "none", ALL),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "none (traced / untraced wall)", ALL),
]

#: Layer -> the metric holding its self time.  These, plus
#: ``trace.unattributed_s``, add up to ``trace.wall_s``.
LAYER_BUSY: Dict[str, str] = {
    "sim": "sim.busy_s",
    "building": "building.busy_s",
    "radio": "radio.busy_s",
    "ble": "ble.busy_s",
    "phone": "phone.busy_s",
    "filters": "filters.busy_s",
    "energy": "energy.busy_s",
    "comms": "comms.busy_s",
    "fleet.columnar": "fleet.columnar.busy_s",
    "server.rest": "server.rest.busy_s",
    "server.sharded": "server.sharded.busy_s",
    "server.bms": "server.bms.busy_s",
    "ml": "ml.busy_s",
    "traces.wal": "traces.wal.busy_s",
    "server.replay": "server.replay.busy_s",
    "server.persistence": "server.persistence.busy_s",
    "core": "core.calibration_busy_s",
    "loadgen": "loadgen.busy_s",
    "pace": "pace.busy_s",
}


#: The traced run fails when the time no wrapper covers exceeds this
#: share of its wall time (0.04-1 % was measured).
MAX_UNATTRIBUTED_SHARE = 0.03


def layers_on(workload: str) -> List[str]:
    """Layers whose ``busy_s`` metric ``PER_LAYER`` lists for ``workload``."""
    on = {m.name: m.on for m in PER_LAYER}
    return [
        layer for layer, metric in LAYER_BUSY.items()
        if workload in on[metric].split(", ")
    ]


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` document: exactly these keys, nothing else."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_document(), indent=2))
