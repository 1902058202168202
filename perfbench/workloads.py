"""The three benchmark workloads: inputs, one repetition, output checks.

Each workload generates its inputs from the seed when it is built
(untimed), then runs any number of identical repetitions.  A
repetition sets a fresh system up, drives it, refreshes its model,
closes its state directory and recovers a server from it; the timed
phases run back to back so a traced repetition's root span covers
exactly them.  Output checks and digests run after the phases.

The process-wide Gram cache would flatter later repetitions, so each
repetition starts cold: the cache is cleared before set-up, and again
before recovery, which a real restart pays in a new process.

Each timed phase also takes pace samples (``pace.py``), untimed, spread
through it; the phase's timings are divided by the slowdown they read
before they are stored, so a ``Rep`` holds times at the nominal pace.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import spec
import stream
from pace import Pace
from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import test_house
from repro.core import OccupancyDetectionSystem, SystemConfig, run_calibration
from repro.fleet import columnar
from repro.ml import gram_cache
from repro.ml.datasets import MISSING_DISTANCE_M
from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.radio.channel import ChannelModel
from repro.server import persistence, replay
from repro.server.bms import BuildingManagementServer
from repro.server.rest import Request
from repro.server.sharded import ShardedBmsService
from repro.sim.rng import derive_seed
from repro.traces.wal import SightingWal, wal_segment_paths

perf_counter = time.perf_counter
#: Durations and service times are read on the process's CPU clock.
#: The benchmark is one single-threaded, CPU-bound process, so on an
#: idle host this equals wall time; on a shared VM it leaves out the
#: time the host preempted the guest (the steal column of
#: /proc/stat).  It does not leave out a host that runs the guest
#: slower, which ``pace.py`` corrects for.  Open-loop latencies stay on
#: the wall clock: they are measured from a schedule, and waiting is
#: part of them.
cpu_time = time.process_time


@dataclass
class Rep:
    """Measurements and outputs of one repetition."""

    setup_s: List[float] = field(default_factory=list)
    #: Timed units: the drive's (scan periods or closed-loop requests)
    #: with the device-seconds each took in, sighting posts with their
    #: rows, and per-sighting and per-read latencies.
    drive_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    drive_device_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    post_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    post_rows: np.ndarray = field(default_factory=lambda: np.empty(0))
    ingest_lat_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    read_lat_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    refresh_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    accuracy: float = 0.0
    delivery_ratio: float = 0.0
    requests: int = 0
    failed: int = 0
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    late_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    backlog_max: int = 0
    layer: Dict[str, float] = field(default_factory=dict)
    labels: List[Optional[str]] = field(default_factory=list)
    #: Phase -> how many times slower than nominal the host ran in it
    #: (``pace.py``); every timing above is already divided by it.
    slowdowns: Dict[str, List[float]] = field(default_factory=dict)


class GramTally:
    """Clears the process-wide Gram cache, keeping its hit/miss totals."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        cache = gram_cache.default_cache()
        stats = cache.stats()
        self.hits += stats["hits"]
        self.misses += stats["misses"]
        cache.clear()


def _paced(rep: Rep, phase: str, pace: Pace) -> float:
    """The slowdown ``pace`` read, noted on ``rep`` under ``phase``."""
    slowdown = pace.slowdown()
    rep.slowdowns.setdefault(phase, []).append(slowdown)
    return slowdown


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _state_json(snapshot, history) -> str:
    """The occupancy snapshot and per-room history, canonical JSON."""
    return json.dumps(
        {
            "time": snapshot.time,
            "rooms": snapshot.rooms,
            "devices": snapshot.devices,
            "history": {room: history.series(room) for room in history.rooms()},
        },
        sort_keys=True,
    )


def _refresh_bodies(dataset, rows: int, count: int) -> List[dict]:
    """``count`` refresh calls, each re-surveying one room.

    Rooms with the most labelled rows come first (name breaks ties);
    each call carries that room's first ``rows`` fingerprints.
    """
    by_room: Dict[str, List[dict]] = {}
    for fingerprint, label, t in zip(dataset.fingerprints, dataset.labels, dataset.times):
        by_room.setdefault(label, []).append(
            {"room": label, "beacons": dict(fingerprint), "time": float(t)}
        )
    ranked = sorted(by_room, key=lambda room: (-len(by_room[room]), room))
    return [{"fingerprints": by_room[room][:rows]} for room in ranked[:count]]


def _wal_on_disk(directories: List[Path]) -> Dict[str, float]:
    segments = [p for d in directories for p in wal_segment_paths(d)]
    return {
        "segments": float(len(segments)),
        "bytes": float(sum(p.stat().st_size for p in segments)),
    }


class _Probe:
    """Times a simulated system's sighting POSTs, reads and scan periods.

    Instance-level shims on the system's BMS: the uplinks call the
    router they were built with, and the detection loop reads the
    store through ``snapshot`` / ``device_room_at``.  History marks
    also take a snapshot; those are not client reads and are skipped.
    """

    def __init__(self, bms, pace) -> None:
        self.ingest: List[tuple] = []
        self.reads: List[float] = []
        # A scan period runs from one mark's ``starts`` entry to the
        # next mark's ``ends`` entry; the pace sample between them is
        # timed on its own.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.requests = 0
        self.failed = 0
        self._in_history = False
        router = bms.router
        dispatch = router.dispatch
        snapshot = bms.snapshot
        device_room_at = bms.device_room_at
        record_history = bms.record_history
        probe = self

        def timed_dispatch(request):
            start = cpu_time()
            response = dispatch(request)
            elapsed = cpu_time() - start
            probe.requests += 1
            if not 200 <= response.status < 300:
                probe.failed += 1
            elif request.path == "/sightings":
                probe.ingest.append((elapsed, 1))
            elif request.path == "/sightings/batch":
                probe.ingest.append((elapsed, len(request.body["sightings"])))
            return response

        def timed_snapshot(now=None):
            start = cpu_time()
            result = snapshot(now)
            if not probe._in_history:
                probe.reads.append(cpu_time() - start)
            return result

        def timed_device_room_at(device_id, now):
            start = cpu_time()
            result = device_room_at(device_id, now)
            probe.reads.append(cpu_time() - start)
            return result

        def flagged_record_history(now=None):
            probe.ends.append(cpu_time())
            pace.sample()
            probe.starts.append(cpu_time())
            probe._in_history = True
            try:
                return record_history(now)
            finally:
                probe._in_history = False

        router.dispatch = timed_dispatch
        bms.snapshot = timed_snapshot
        bms.device_room_at = timed_device_room_at
        bms.record_history = flagged_record_history


class SimWorkload:
    """``paper-house`` and ``fleet-columnar``: the simulated pipeline.

    The deployment is the paper's: ``SystemConfig()`` with its own fixed
    seed, so the house's radio channel, the operator's calibration and
    re-survey walks and the trained model are the same for every
    benchmark seed.  The seed picks the occupants' walks, which decide
    everything the drive sees.  (Per-seed calibrations made set-up,
    refresh and recovery cost up to 2x apart from seed to seed, since
    SMO work depends on the data.)
    """

    def __init__(self, name: str, seed: int, *, occupants: int, columnar: bool,
                 wal: bool, config: SystemConfig) -> None:
        self.name = name
        self.seed = seed
        self.occupants = occupants
        self.columnar = columnar
        self.wal = wal
        self.config = config
        self.plan = test_house()
        walk = run_calibration(
            self.plan,
            duration_s=spec.REFRESH_WALK_S,
            mode="walk",
            seed=derive_seed(config.seed, "refresh-walk"),
            channel=ChannelModel(seed=derive_seed(config.seed, "channel")),
        )
        self.refreshes = _refresh_bodies(walk, spec.REFRESH_ROWS, spec.REFRESHES)

    def occupants_of_seed(self) -> List[Occupant]:
        return [
            Occupant(
                f"dev-{i:04d}",
                RandomWaypoint(self.plan, seed=derive_seed(self.seed, f"fleet:{i}")),
            )
            for i in range(self.occupants)
        ]

    def setup(self, directory: Path, occupants: List[Occupant]):
        """Construction, calibration, training and the state directory."""
        config = self.config
        system = OccupancyDetectionSystem(self.plan, config)
        system.calibrate(duration_s=spec.CALIBRATION_S)
        system.train()
        bms = system.bms
        wal = None
        if self.wal:
            wal = SightingWal(directory / "shard-00")
            bms.attach_wal(wal)
        replay.write_manifest(
            directory,
            beacon_ids=list(bms.vectorizer.beacon_ids),
            missing_value=bms.vectorizer.missing_value,
            device_timeout_s=bms.device_timeout_s,
            svm_c=config.svm_c,
            svm_gamma=config.svm_gamma,
            seed=config.seed,
        )
        persistence.save_calibration(bms, directory / replay.CALIBRATION_NAME)
        for occupant in occupants:
            system.add_occupant(occupant)
        return system, wal

    def time_setup(self, directory: Path, rep: Rep) -> float:
        """One more set-up from a cold Gram cache; its CPU seconds at the nominal pace."""
        occupants = self.occupants_of_seed()
        gram_cache.default_cache().clear()
        pace = Pace()
        pace.sample(spec.PACE_EDGE)
        start = cpu_time()
        _, wal = self.setup(directory, occupants)
        elapsed = cpu_time() - start
        pace.sample(spec.PACE_EDGE)
        if wal is not None:
            wal.close()
        gram_cache.default_cache().clear()
        return elapsed / _paced(rep, "setup", pace)

    def repetition(self, directory: Path, root=None) -> Rep:
        rep = Rep()
        gram = GramTally()
        gram.clear()
        config = self.config
        occupants = self.occupants_of_seed()
        paces = {phase: Pace() for phase in ("setup", "drive", "refresh", "recover")}
        refresh_s, recover_s = [], []
        with root or contextlib.nullcontext():
            wall0 = perf_counter()
            paces["setup"].sample(spec.PACE_EDGE)
            t0 = cpu_time()
            system, wal = self.setup(directory, occupants)
            t1 = cpu_time()
            paces["setup"].sample(spec.PACE_EDGE)
            bms = system.bms
            probe = _Probe(bms, paces["drive"])
            if self.columnar:
                run = columnar.run_columnar(system, spec.DRIVE_S)
            else:
                run = system.run(spec.DRIVE_S)
            for body in self.refreshes:
                paces["refresh"].sample(spec.PACE_EDGE)
                start = cpu_time()
                response = bms.router.dispatch(
                    Request("POST", "/model/refresh", body=body, time=bms.now)
                )
                refresh_s.append(cpu_time() - start)
                if not response.ok:
                    rep.errors.append(f"refresh answered {response.status}")
            if wal is not None:
                wal.close()
            # Recovery only reads the directory, so it can be timed more
            # than once; each attempt starts from a cold Gram cache.
            for _ in range(spec.SIM_RECOVERIES):
                gram.clear()
                paces["recover"].sample(spec.PACE_EDGE)
                start = cpu_time()
                recovered, report = replay.server_from_manifest(directory)
                recover_s.append(cpu_time() - start)
            paces["recover"].sample(spec.PACE_EDGE)
            wall = perf_counter() - wall0
        gram.clear()
        slow = {phase: _paced(rep, phase, pace) for phase, pace in paces.items()}
        rep.setup_s.append((t1 - t0) / slow["setup"])
        rep.refresh_s = [t / slow["refresh"] for t in refresh_s]
        rep.recover_s = [t / slow["recover"] for t in recover_s]
        rep.wall_s = wall
        # One history mark opens each simulated scan period.
        drive_s = np.asarray(probe.ends[1:]) - np.asarray(probe.starts[:-1])
        rep.drive_s = drive_s / slow["drive"]
        rep.drive_device_s = np.full(len(drive_s), self.occupants * config.scan_period_s)
        rep.requests, rep.failed = probe.requests, probe.failed
        lat = np.asarray(probe.ingest)
        rep.post_s, rep.post_rows = lat[:, 0] / slow["drive"], lat[:, 1]
        rep.ingest_lat_s = np.repeat(rep.post_s, lat[:, 1].astype(int))
        rep.read_lat_s = np.asarray(probe.reads) / slow["drive"]
        rep.accuracy = float(run.accuracy)
        stats = list(run.delivery.values())
        attempts = sum(s.attempts for s in stats)
        delivered = sum(s.delivered for s in stats)
        rep.delivery_ratio = delivered / attempts if attempts else 0.0
        rep.digest = _digest(
            {
                "predictions": run.predictions,
                "delivery": {
                    name: [s.attempts, s.delivered, s.failed, s.retries]
                    for name, s in run.delivery.items()
                },
                "energy": {name: b.components_j for name, b in run.energy.items()},
            }
        )
        if self.wal:
            live = _state_json(bms.snapshot(), bms.history)
            if _state_json(recovered.snapshot(), recovered.history) != live:
                rep.errors.append("recovered occupancy/history differ from the live server")
            if report.sightings != wal.sightings_appended:
                rep.errors.append("replay applied a different number of sightings")
            disk = _wal_on_disk([directory / "shard-00"])
            rep.layer.update(
                {
                    "traces.wal.segments": disk["segments"],
                    "traces.wal.bytes": disk["bytes"],
                    "traces.wal.sightings": float(wal.sightings_appended),
                }
            )
        rep.layer.update(
            {
                "comms.retries": float(sum(s.retries for s in stats)),
                "comms.dropped": float(sum(s.failed for s in stats)),
                "fleet.columnar.ticks": (
                    float(int(spec.DRIVE_S / config.scan_period_s)) if self.columnar else 0.0
                ),
                "ml.gram_hits": float(gram.hits),
                "ml.gram_misses": float(gram.misses),
            }
        )
        return rep


class StreamWorkload:
    """``bms-stream``: the sharded server under an open-loop stream.

    As on the sims, the deployment is the same for every seed: the
    channel, the calibration survey the shards train on and the walk
    whose beacon vectors the devices send all come from
    ``SystemConfig()``'s seed.  (Per-seed surveys trained models whose
    predict cost differed by up to a third between seeds.)  The seed
    picks the traffic: which devices batch, each device's phase in the
    scan period and where on the walk it starts.
    """

    name = "bms-stream"

    def __init__(self, seed: int) -> None:
        plan = test_house()
        self.beacon_ids = list(plan.beacon_ids)
        self.rooms = list(plan.labels)
        self.config = SystemConfig()
        deployment = self.config.seed
        channel = ChannelModel(seed=derive_seed(deployment, "channel"))
        self.calibration = run_calibration(
            plan,
            duration_s=spec.CALIBRATION_S,
            seed=derive_seed(deployment, "calibration"),
            channel=channel,
        )
        walk = run_calibration(
            plan,
            duration_s=spec.STREAM_WALK_S,
            mode="walk",
            seed=derive_seed(deployment, "stream-walk"),
            channel=channel,
        )
        self.device_timeout_s = max(3.0 * spec.SCAN_PERIOD_S, 10.0)
        self.refreshes = _refresh_bodies(walk, spec.REFRESH_ROWS, spec.REFRESHES)
        rng = np.random.default_rng([seed, 11])
        self.logical_per_wall = spec.STREAM_NOMINAL_SPS / (
            spec.STREAM_DEVICES / spec.SCAN_PERIOD_S
        )
        fleet = stream.Fleet(
            rng,
            devices=spec.STREAM_DEVICES,
            batched_share=spec.STREAM_BATCHED_SHARE,
            batch_rows=spec.STREAM_BATCH_ROWS,
            scan_period_s=spec.SCAN_PERIOD_S,
            pool=len(walk),
        )
        common = dict(
            start_time=60.0,
            logical_per_wall=self.logical_per_wall,
            rooms=self.rooms,
            Request=Request,
        )
        self.open_posts, self.events = stream.draw_traffic(
            fleet, walk.fingerprints, walk.labels,
            first_period=0, periods=spec.STREAM_OPEN_PERIODS, reads=True, **common,
        )
        self.refresh_time = common["start_time"] + spec.STREAM_OPEN_PERIODS * spec.SCAN_PERIOD_S
        self.closed_posts, _ = stream.draw_traffic(
            fleet, walk.fingerprints, walk.labels,
            first_period=spec.STREAM_OPEN_PERIODS, periods=spec.STREAM_CLOSED_PERIODS,
            reads=False, **common,
        )
        self._reference: Optional[List[str]] = None

    def make_classifier(self) -> SupportVectorClassifier:
        config = self.config
        return SupportVectorClassifier(
            c=config.svm_c, kernel=RbfKernel(gamma=config.svm_gamma), seed=config.seed
        )

    def reference_labels(self) -> List[str]:
        """Open-loop labels of an identically trained single store."""
        if self._reference is None:
            store = BuildingManagementServer(
                self.beacon_ids,
                classifier=self.make_classifier(),
                device_timeout_s=self.device_timeout_s,
            )
            data = self.calibration
            for fingerprint, label, t in zip(data.fingerprints, data.labels, data.times):
                store.add_fingerprint(label, fingerprint, t)
            store.train()
            self._reference = store.classify_batch(self.open_posts.beacons)
            gram_cache.default_cache().clear()
        return self._reference

    def setup(self, directory: Path) -> ShardedBmsService:
        """Construction, the fingerprint load, training and the state directory."""
        data = self.calibration
        service = ShardedBmsService(
            self.beacon_ids,
            shards=spec.STREAM_SHARDS,
            classifier_factory=self.make_classifier,
            missing_value=MISSING_DISTANCE_M,
            device_timeout_s=self.device_timeout_s,
            drain_policy="immediate",
            wal_dir=directory,
        )
        for fingerprint, label, t in zip(data.fingerprints, data.labels, data.times):
            service.add_fingerprint(label, fingerprint, t)
        service.train()
        replay.write_manifest(
            directory,
            beacon_ids=self.beacon_ids,
            missing_value=MISSING_DISTANCE_M,
            device_timeout_s=self.device_timeout_s,
            svm_c=self.config.svm_c,
            svm_gamma=self.config.svm_gamma,
            seed=self.config.seed,
            shards=spec.STREAM_SHARDS,
        )
        persistence.save_calibration(service, directory / replay.CALIBRATION_NAME)
        return service

    def time_setup(self, directory: Path, rep: Rep) -> float:
        """One more set-up from a cold Gram cache; its CPU seconds at the nominal pace."""
        gram_cache.default_cache().clear()
        pace = Pace()
        pace.sample(spec.PACE_EDGE)
        start = cpu_time()
        service = self.setup(directory)
        elapsed = cpu_time() - start
        pace.sample(spec.PACE_EDGE)
        service.close_wals()
        gram_cache.default_cache().clear()
        return elapsed / _paced(rep, "setup", pace)

    def repetition(self, directory: Path, root=None) -> Rep:
        rep = Rep()
        gram = GramTally()
        gram.clear()
        phases = ("setup", "open", "refresh", "closed", "recover")
        paces = {phase: Pace() for phase in phases}
        refresh_s = []
        with root or contextlib.nullcontext():
            wall0 = perf_counter()
            paces["setup"].sample(spec.PACE_EDGE)
            t0 = cpu_time()
            service = self.setup(directory)
            t1 = cpu_time()
            paces["setup"].sample(spec.PACE_EDGE)
            dispatch = service.router.dispatch
            # The schedule keeps time at the nominal pace: on a slower
            # host it plays slower by as much, so the program carries
            # the same share of load whatever the host's speed.
            paces["open"].sample(spec.PACE_EDGE)
            open_loop = stream.OpenLoop(self.events, self.open_posts.sightings).run(
                dispatch, service.record_history, paces["open"],
                stretch=paces["open"].slowdown(),
            )
            refresh_failed = 0
            for body in self.refreshes:
                paces["refresh"].sample(spec.PACE_EDGE)
                start = cpu_time()
                response = dispatch(
                    Request("POST", "/model/refresh", body=body, time=self.refresh_time)
                )
                refresh_s.append(cpu_time() - start)
                if not response.ok:
                    refresh_failed += 1
                    rep.errors.append(f"refresh answered {response.status}")
            closed = stream.closed_loop(self.closed_posts, dispatch, cpu_time, paces["closed"])
            compact = dispatch(Request("POST", "/wal/compact", time=self.refresh_time))
            service.close_wals()
            gram.clear()
            paces["recover"].sample(spec.PACE_EDGE)
            t3 = cpu_time()
            recovered, report = replay.server_from_manifest(directory)
            t4 = cpu_time()
            paces["recover"].sample(spec.PACE_EDGE)
            wall = perf_counter() - wall0
        gram.clear()
        slow = {phase: _paced(rep, phase, pace) for phase, pace in paces.items()}
        rep.setup_s.append((t1 - t0) / slow["setup"])
        rep.refresh_s = [t / slow["refresh"] for t in refresh_s]
        rep.recover_s.append((t4 - t3) / slow["recover"])
        rep.wall_s = wall
        rep.post_s = closed.request_s / slow["closed"]
        rep.post_rows = closed.request_rows
        # Each sighting is one device's scan period of data.
        rep.drive_s = rep.post_s
        rep.drive_device_s = closed.request_rows * spec.SCAN_PERIOD_S
        rep.ingest_lat_s = open_loop.ingest_s / slow["open"]
        rep.read_lat_s = open_loop.read_s / slow["open"]
        rep.late_s = open_loop.late_s
        rep.backlog_max = open_loop.backlog_max
        rep.requests = open_loop.requests + closed.requests + len(self.refreshes) + 1
        rep.failed = open_loop.failed + closed.failed + refresh_failed + (not compact.ok)
        labels = open_loop.labels + closed.labels
        answered = sum(1 for label in labels if label is not None)
        rep.delivery_ratio = answered / len(labels)
        truth = self.open_posts.truth
        rep.accuracy = float(
            np.mean([label == room for label, room in zip(open_loop.labels, truth)])
        )
        rep.digest = _digest(labels)
        if not compact.ok:
            rep.errors.append(f"compaction answered {compact.status}")
        live = _state_json(service.snapshot(), service.merged_history())
        if _state_json(recovered.snapshot(), recovered.merged_history()) != live:
            rep.errors.append("recovered occupancy/history differ from the live service")
        wal_info = service.router.dispatch(Request("GET", "/wal")).body["shards"]
        appended = sum(shard["sightings_appended"] for shard in wal_info)
        if report.sightings != appended:
            rep.errors.append("replay applied a different number of sightings")
        disk = _wal_on_disk(sorted(directory.glob("shard-*")))
        rep.layer.update(
            {
                "traces.wal.segments": disk["segments"],
                "traces.wal.bytes": disk["bytes"],
                "traces.wal.sightings": float(appended),
                "ml.gram_hits": float(gram.hits),
                "ml.gram_misses": float(gram.misses),
            }
        )
        rep.labels = open_loop.labels
        return rep

    def check_reference(self, rep: Rep) -> None:
        """Pre-refresh labels must equal a single store's ``classify_batch``."""
        if rep.labels != self.reference_labels():
            rep.errors.append("open-loop labels differ from a single store's classify_batch")


def make(name: str, seed: int):
    """Build a workload's inputs from its seed."""
    if name == "paper-house":
        return SimWorkload(
            name, seed, occupants=spec.PAPER_OCCUPANTS, columnar=False, wal=True,
            config=SystemConfig(),
        )
    if name == "fleet-columnar":
        return SimWorkload(
            name, seed, occupants=spec.FLEET_OCCUPANTS, columnar=True, wal=False,
            config=SystemConfig(
                uplink="wifi",
                uplink_batch_size=spec.FLEET_BATCH_SIZE,
                uplink_batch_delay_s=spec.FLEET_BATCH_DELAY_S,
            ),
        )
    if name == "bms-stream":
        return StreamWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def fresh_directory(base: Path, index: int) -> Path:
    directory = base / f"rep-{index:03d}"
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    return directory
