"""The fleet load generator: M devices, one BMS, batched ingestion.

Builds a full :class:`~repro.core.system.OccupancyDetectionSystem`,
registers ``devices`` wandering occupants, runs online detection for
``duration_s`` simulated seconds with the uplink batch policy enabled,
and distils the run into a :class:`FleetReport`.  Throughput numbers
are read back from the system's :class:`~repro.obs.metrics.MetricsRegistry`
(the ``server.sightings`` / ``server.batches`` counters the BMS
maintains) and re-published as ``fleet.*`` gauges so exporters see
them alongside the rest of the telemetry.

Fleet runs also shard: with ``shards > 1`` the M devices are split
into independent sub-fleets — each with its own BMS, channel and RNG
streams seeded from the master seed through the
:class:`~repro.parallel.engine.ShardPlan` derivation — executed on a
process pool (``workers``) and folded back into one merged
:class:`FleetReport` plus one merged telemetry registry.  The shard
*plan* fixes the decomposition, so the merged result is worker-count
invariant: ``workers=1`` and ``workers=8`` produce identical reports
from the same master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

from repro.building.floorplan import FloorPlan
from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import test_house
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem
from repro.ml import gram_cache
from repro.obs import profiling
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import WallClockProfiler, render_profile
from repro.obs.sinks import MemorySink
from repro.obs.tracing import TraceContext
from repro.parallel.engine import ShardPlan, ShardResult, ShardSpec, run_shards
from repro.server.bms import OccupancySnapshot
from repro.server.persistence import save_calibration
from repro.server.replay import CALIBRATION_NAME, write_manifest
from repro.server.sharded import ShardedBmsService
from repro.sim.rng import derive_seed
from repro.traces.wal import SightingWal

__all__ = ["FleetLoadGenerator", "FleetReport"]


@dataclass(frozen=True)
class FleetReport:
    """Outcome of one fleet load run.

    Attributes:
        devices: number of simulated devices driven.
        duration_s: simulated span.
        reports_ingested: sighting reports the BMS accepted.
        batch_requests: ``POST /sightings/batch`` requests served.
        requests_handled: total requests through the REST router.
        throughput_rps: accepted reports per simulated second.
        mean_batch_size: reports per batch request (0 when unbatched).
        accuracy: room-level accuracy over the run's ground truth.
        delivery_ratio: delivered / attempted reports across the fleet.
        energy_j_total: radio + platform energy burned by the fleet.
        profile: merged wall-clock profile of the run (a
            :meth:`~repro.obs.profiling.WallClockProfiler.state` dict)
            when profiling was requested, else ``None``.  Excluded
            from equality and :meth:`to_dict`: wall time varies run to
            run, and the report's deterministic fields must stay
            byte-identical across worker counts.
    """

    devices: int
    duration_s: float
    reports_ingested: int
    batch_requests: int
    requests_handled: int
    throughput_rps: float
    mean_batch_size: float
    accuracy: float
    delivery_ratio: float
    energy_j_total: float
    profile: Optional[dict] = field(default=None, compare=False, repr=False)

    def profile_table(self) -> str:
        """Aligned per-phase wall-clock table (empty-run text when
        the run was not profiled)."""
        return render_profile(self.profile or {})

    def to_dict(self) -> dict:
        """JSON-friendly view (for CLIs and exporters).

        Deliberately omits :attr:`profile`: the dict is the
        worker-count-invariant payload the CI smoke diffs.
        """
        return {
            "devices": self.devices,
            "duration_s": self.duration_s,
            "reports_ingested": self.reports_ingested,
            "batch_requests": self.batch_requests,
            "requests_handled": self.requests_handled,
            "throughput_rps": self.throughput_rps,
            "mean_batch_size": self.mean_batch_size,
            "accuracy": self.accuracy,
            "delivery_ratio": self.delivery_ratio,
            "energy_j_total": self.energy_j_total,
        }


@dataclass(frozen=True)
class _ShardStats:
    """Raw per-shard tallies the merge needs beyond the report."""

    report: FleetReport
    eval_points: int
    attempts: int
    delivered: int


def _run_fleet_shard(spec: ShardSpec) -> ShardResult:
    """Process-pool worker: drive one sub-fleet and return its stats.

    The payload is the constructor-argument dict built by
    :meth:`FleetLoadGenerator._shard_plan`; the sub-fleet's seed is the
    shard seed, so the result depends only on the spec.  When the
    coordinator records events, the shard runs on a
    :class:`~repro.obs.sinks.MemorySink` registry whose tracer adopts
    the coordinator's :class:`~repro.obs.tracing.TraceContext` under
    the ``shard<i>`` namespace — the shard's whole span tree travels
    home inside ``ShardResult.metrics`` and stitches under the
    coordinator's root span.  A requested wall-clock profile travels
    separately in ``ShardResult.profile`` (never inside the metrics,
    which must stay deterministic).
    """
    payload = dict(spec.payload)
    record_events = payload.pop("record_events", False)
    profile = payload.pop("profile", False)
    registry = (
        MetricsRegistry(sink=MemorySink()) if record_events else MetricsRegistry()
    )
    if spec.trace is not None:
        registry.tracer.adopt(spec.trace, namespace=f"shard{spec.index}")
    generator = FleetLoadGenerator(
        seed=spec.seed, registry=registry, shards=1, **payload
    )
    profiler = WallClockProfiler() if profile else None

    def drive() -> Tuple[FleetReport, _ShardStats]:
        with registry.tracer.span(
            "fleet.shard", shard=spec.index, devices=payload["devices"]
        ):
            return generator._run_single()

    if profiler is not None:
        with profiling.activated(profiler):
            with profiler.measure("fleet.shard_run"):
                with gram_cache.observed(registry):
                    report, stats = drive()
    else:
        report, stats = drive()
    return ShardResult(
        index=spec.index,
        value=stats,
        metrics=registry.state(),
        profile=profiler.state() if profiler is not None else None,
    )


class FleetLoadGenerator:
    """Drives a fleet of simulated devices through one BMS.

    Args:
        devices: fleet size (M).
        duration_s: online-detection span in simulated seconds.
        batch_size: uplink flush threshold; 1 disables batching and
            posts one request per report (the paper's behaviour).
        batch_delay_s: maximum holding delay of a buffered report.
        uplink: ``"wifi"`` or ``"bluetooth"``.
        calibration_s: operator-walk span used to train the classifier.
        seed: master seed; every device's mobility and radio stream is
            derived from it, so runs are replayable.
        plan: floor plan; defaults to the paper's five-room test house.
        registry: telemetry registry; defaults to a fresh no-op one.
        shards: number of independent sub-fleets to split the devices
            into.  ``None`` mirrors ``workers``; ``1`` (the unsharded
            default) preserves the single-system run exactly.  The
            shard count — not the worker count — defines the
            decomposition, so pin ``shards`` when comparing different
            worker counts.
        workers: process-pool size executing the shards.  With
            ``shards`` pinned only the wall clock depends on it, never
            the result; an unset ``shards`` follows it, which changes
            the decomposition and so the result.
        device_offset: global index of this generator's first device
            (sub-fleets use it to keep ``dev-NNNN`` ids and telemetry
            labels unique across shards).
        profile: collect a wall-clock profile of the run's hot paths
            (SMO fit, Gram cache, batched predict, link budgets,
            per-shard drive) into :attr:`FleetReport.profile`.
            Purely presentational for the report — its deterministic
            fields are identical with and without it.  Profiled runs
            additionally attach the Gram-cache ``ml.gram.*`` counters
            and hit-ratio gauge to the run registry.
        columnar: drive the detection phase with the struct-of-arrays
            engine (:mod:`repro.fleet.columnar`) instead of the
            per-device event loop.  Byte-identical reports and
            telemetry aggregates at a fraction of the per-device cost;
            composes with ``shards``/``workers`` (each shard drives
            its sub-fleet columnar) and with tracing/profiling.
        service_shards: when set, swap the system's single-store BMS
            for a :class:`~repro.server.sharded.ShardedBmsService`
            front door with this many per-shard stores (write-through
            drain, so every post still answers with its room).  The
            report and occupancy snapshot are byte-identical across
            service shard counts — the front door's own
            ``server.frontdoor.*`` counters feed the report's batch
            statistics, which are shard-count invariant by
            construction.  ``None`` (the default) keeps the plain
            single-store server.
        wal_dir: write a durable sighting WAL (plus ``manifest.json``
            and the initial-train ``calibration.json``) into this
            directory, making the run recoverable by ``fleet
            --replay``.  Requires an unsharded fleet (``shards=1``;
            sub-fleets have no single building-wide store to log) —
            ``service_shards`` composes fine, each service shard
            logging its own ``shard-NN`` sub-log.
    """

    def __init__(
        self,
        devices: int = 8,
        duration_s: float = 120.0,
        *,
        batch_size: int = 16,
        batch_delay_s: float = 10.0,
        uplink: str = "wifi",
        calibration_s: float = 300.0,
        seed: int = 0,
        plan: Optional[FloorPlan] = None,
        registry: Optional[MetricsRegistry] = None,
        shards: Optional[int] = None,
        workers: int = 1,
        device_offset: int = 0,
        profile: bool = False,
        columnar: bool = False,
        service_shards: Optional[int] = None,
        wal_dir: Optional[str] = None,
    ) -> None:
        if devices < 1:
            raise ValueError(f"fleet needs >= 1 device, got {devices}")
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if service_shards is not None and service_shards < 1:
            raise ValueError(
                f"service_shards must be >= 1, got {service_shards}"
            )
        if device_offset < 0:
            raise ValueError(f"device_offset must be >= 0, got {device_offset}")
        self.devices = int(devices)
        self.duration_s = float(duration_s)
        self.batch_size = int(batch_size)
        self.batch_delay_s = float(batch_delay_s)
        self.uplink = uplink
        self.calibration_s = float(calibration_s)
        self.seed = int(seed)
        self.plan = plan if plan is not None else test_house()
        self.obs = registry if registry is not None else MetricsRegistry()
        self.workers = int(workers)
        resolved = self.workers if shards is None else int(shards)
        self.shards = min(resolved, self.devices)
        self.device_offset = int(device_offset)
        self.profile = bool(profile)
        self.columnar = bool(columnar)
        self.service_shards = (
            int(service_shards) if service_shards is not None else None
        )
        self.wal_dir = wal_dir
        if self.wal_dir is not None and self.shards > 1:
            raise ValueError(
                "wal_dir requires an unsharded fleet (shards=1); use "
                "service_shards to shard the store behind one WAL"
            )
        #: Final merged occupancy snapshot of the last single-system
        #: run (the CI shard-invariance smoke diffs it); ``None``
        #: before :meth:`run` and on the sub-fleet (``shards > 1``)
        #: path, where there is no single building-wide store.
        self.last_occupancy: Optional[OccupancySnapshot] = None
        #: The last single-system run's occupancy history (merged
        #: across service shards when ``service_shards`` is set) — the
        #: replay CI smoke diffs it against the recovered history.
        self.last_history = None

    def run(self) -> FleetReport:
        """Calibrate, train, drive the fleet, and summarise the run.

        With ``shards > 1`` the sub-fleets execute on the process pool
        and their reports and telemetry merge into one; otherwise the
        whole fleet runs in a single system in-process.
        """
        if self.shards > 1:
            return self._run_sharded()
        if not self.profile:
            report, _ = self._run_single()
            return report
        profiler = WallClockProfiler()
        with profiling.activated(profiler):
            with profiler.measure("fleet.shard_run"):
                # Profiled runs additionally observe the Gram cache:
                # the ml.gram.* counters and hit-ratio gauge land on
                # the run registry so the shared-Gram reuse shows up in
                # --profile output (detached again on exit, keeping
                # unprofiled telemetry untouched).
                with gram_cache.observed(self.obs):
                    report, _ = self._run_single()
        return replace(report, profile=profiler.state())

    # ------------------------------------------------------------------
    # Single-system path (one BMS, all devices)
    # ------------------------------------------------------------------
    def _attach_sharded_service(
        self, system: OccupancyDetectionSystem
    ) -> ShardedBmsService:
        """Swap the system's single-store BMS for the sharded front door.

        The service inherits the system's exact server configuration —
        beacon feature space, missing-value fill, device timeout, and
        (via ``classifier_factory``) the seeded classifier recipe — so
        a ``service_shards=1`` run reproduces the single store's
        predictions bit-for-bit, and higher shard counts reproduce
        *those*.  Write-through drain keeps every post synchronous, as
        the uplinks expect.
        """
        plain = system.bms
        service = ShardedBmsService(
            beacon_ids=list(plain.vectorizer.beacon_ids),
            shards=self.service_shards,
            classifier_factory=system._make_classifier,
            missing_value=plain.vectorizer.missing_value,
            device_timeout_s=plain.device_timeout_s,
            registry=self.obs,
            drain_policy="immediate",
            wal_dir=self.wal_dir,
        )
        system.bms = service
        return service

    def _run_single(self) -> Tuple[FleetReport, _ShardStats]:
        config = SystemConfig(
            seed=self.seed,
            uplink=self.uplink,
            uplink_batch_size=self.batch_size,
            uplink_batch_delay_s=self.batch_delay_s,
        )
        system = OccupancyDetectionSystem(self.plan, config, registry=self.obs)
        service = None
        if self.service_shards is not None:
            service = self._attach_sharded_service(system)
        with profiling.measure("fleet.calibrate"):
            system.calibrate(duration_s=self.calibration_s)
        with profiling.measure("fleet.train"):
            system.train()
        if self.wal_dir is not None:
            # The WAL directory is self-contained: the manifest records
            # the server construction recipe and the calibration
            # snapshot captures the trained model's inputs, so
            # ``fleet --replay`` rebuilds the exact live server from
            # the directory alone.  Sighting logs only start now —
            # calibration never touches the ingest path.
            wal_path = Path(self.wal_dir)
            if service is None:
                system.bms.attach_wal(
                    SightingWal(wal_path / "shard-00", registry=self.obs)
                )
            vectorizer = system.bms.model.vectorizer
            write_manifest(
                wal_path,
                beacon_ids=list(vectorizer.beacon_ids),
                missing_value=vectorizer.missing_value,
                device_timeout_s=system.bms.device_timeout_s,
                svm_c=config.svm_c,
                svm_gamma=config.svm_gamma,
                seed=self.seed,
                shards=self.service_shards or 1,
            )
            save_calibration(system.bms, wal_path / CALIBRATION_NAME)
        for i in range(self.devices):
            index = self.device_offset + i
            mobility = RandomWaypoint(
                self.plan, seed=derive_seed(self.seed, f"fleet:{index}")
            )
            system.add_occupant(Occupant(f"dev-{index:04d}", mobility))
        with profiling.measure("fleet.drive"):
            if self.columnar:
                from repro.fleet.columnar import run_columnar

                run = run_columnar(system, self.duration_s)
            else:
                run = system.run(self.duration_s)

        if service is not None:
            # Fold every shard store's telemetry into the run registry,
            # then read the *front-door* batch statistics: shard-level
            # server.batches counts coalesced per-shard ingests (it
            # varies with the shard count), the front door counts one
            # per arriving request (it does not).
            service.merge_telemetry_into(self.obs)
            batches = int(self.obs.counter("server.frontdoor.batches").value)
            batch_hist = self.obs.histogram("server.frontdoor.batch_size")
        else:
            batches = int(self.obs.counter("server.batches").value)
            batch_hist = self.obs.histogram("server.batch_size")
        ingested = int(self.obs.counter("server.sightings").value)
        self.last_occupancy = system.bms.snapshot()
        self.last_history = system.bms.merged_history()
        # Seal the active segments so a WAL directory is complete on
        # disk the moment the run returns.
        for wal in system.bms.wals():
            wal.close()
        throughput = ingested / self.duration_s
        attempts = sum(s.attempts for s in run.delivery.values())  # repro: noqa[numeric-dict-reduction] integer counts, order-free
        delivered = sum(s.delivered for s in run.delivery.values())  # repro: noqa[numeric-dict-reduction] integer counts, order-free
        energy = sum(b.total_j for b in run.energy.values())  # repro: noqa[numeric-dict-reduction] keyed by device id, inserted in fixed add_occupant order
        eval_points = sum(len(p) for p in run.predictions.values())  # repro: noqa[numeric-dict-reduction] integer counts, order-free

        self.obs.gauge("fleet.devices").set(float(self.devices))
        self.obs.gauge("fleet.throughput_rps").set(throughput)
        self.obs.gauge("fleet.reports_ingested").set(float(ingested))
        self.obs.gauge("fleet.delivery_ratio").set(
            delivered / attempts if attempts else 1.0
        )
        report = FleetReport(
            devices=self.devices,
            duration_s=self.duration_s,
            reports_ingested=ingested,
            batch_requests=batches,
            requests_handled=system.bms.router.requests_handled,
            throughput_rps=throughput,
            mean_batch_size=batch_hist.mean,
            accuracy=run.accuracy,
            delivery_ratio=delivered / attempts if attempts else 1.0,
            energy_j_total=energy,
        )
        stats = _ShardStats(
            report=report,
            eval_points=eval_points,
            attempts=attempts,
            delivered=delivered,
        )
        return report, stats

    # ------------------------------------------------------------------
    # Sharded path (independent sub-fleets on the process pool)
    # ------------------------------------------------------------------
    def _shard_plan(self, trace: Optional[TraceContext] = None) -> ShardPlan:
        """The deterministic sub-fleet decomposition of this run.

        The trace context and the record/profile flags ride in the
        plan, but none of them reaches the simulation: shard seeds
        depend only on the plan name, master seed and index, so a
        traced or profiled run produces byte-identical reports.
        """
        base, extra = divmod(self.devices, self.shards)
        payloads = []
        offset = self.device_offset
        for i in range(self.shards):
            count = base + (1 if i < extra else 0)
            payloads.append(
                {
                    "devices": count,
                    "duration_s": self.duration_s,
                    "batch_size": self.batch_size,
                    "batch_delay_s": self.batch_delay_s,
                    "uplink": self.uplink,
                    "calibration_s": self.calibration_s,
                    "plan": self.plan,
                    "device_offset": offset,
                    "record_events": isinstance(self.obs.sink, MemorySink),
                    "profile": self.profile,
                    "columnar": self.columnar,
                    "service_shards": self.service_shards,
                }
            )
            offset += count
        return ShardPlan.create("fleet", self.seed, payloads, trace=trace)

    def _run_sharded(self) -> FleetReport:
        # The coordinator opens the distributed trace: one root span
        # every shard's tree hangs off via the propagated context.
        tracer = self.obs.tracer
        tracer.adopt(TraceContext(f"fleet-{self.seed}"))
        with tracer.span(
            "fleet.run", devices=self.devices, shards=self.shards
        ):
            plan = self._shard_plan(trace=tracer.context())
            results: List[ShardResult] = run_shards(
                _run_fleet_shard, plan, workers=self.workers
            )
        # Fold shard telemetry in index order so the merged registry is
        # identical at every worker count.
        for result in sorted(results, key=lambda r: r.index):
            self.obs.merge(result.metrics)
        profile: Optional[dict] = None
        if self.profile:
            profiler = WallClockProfiler()
            for result in sorted(results, key=lambda r: r.index):
                if result.profile:
                    profiler.merge(result.profile)
            profile = profiler.state()
        stats = [r.value for r in sorted(results, key=lambda r: r.index)]

        ingested = sum(s.report.reports_ingested for s in stats)
        batches = sum(s.report.batch_requests for s in stats)
        requests = sum(s.report.requests_handled for s in stats)
        attempts = sum(s.attempts for s in stats)
        delivered = sum(s.delivered for s in stats)
        energy = sum(s.report.energy_j_total for s in stats)
        throughput = ingested / self.duration_s
        weighted = [
            (s.report.accuracy, s.eval_points)
            for s in stats
            if s.eval_points > 0 and not math.isnan(s.report.accuracy)
        ]
        total_eval = sum(n for _, n in weighted)
        accuracy = (
            sum(a * n for a, n in weighted) / total_eval
            if total_eval
            else float("nan")
        )
        mean_batch = 0.0
        if batches:
            mean_batch = (
                sum(s.report.mean_batch_size * s.report.batch_requests for s in stats)
                / batches
            )

        self.obs.gauge("fleet.devices").set(float(self.devices))
        self.obs.gauge("fleet.throughput_rps").set(throughput)
        self.obs.gauge("fleet.reports_ingested").set(float(ingested))
        self.obs.gauge("fleet.delivery_ratio").set(
            delivered / attempts if attempts else 1.0
        )
        return FleetReport(
            devices=self.devices,
            duration_s=self.duration_s,
            reports_ingested=ingested,
            batch_requests=batches,
            requests_handled=requests,
            throughput_rps=throughput,
            mean_batch_size=mean_batch,
            accuracy=accuracy,
            delivery_ratio=delivered / attempts if attempts else 1.0,
            energy_j_total=energy,
            profile=profile,
        )
