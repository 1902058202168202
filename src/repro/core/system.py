"""The complete occupancy-detection system.

One object owning the whole deployment of Section IV: the instrumented
building (beacon transmitters), the occupants' phones running the
client app, the uplink channel, and the BMS with its Scene Analysis
classifier.  The lifecycle mirrors the paper:

1. :meth:`calibrate` - the operator walk populates the fingerprint DB;
2. :meth:`train` - the server fits the classifier;
3. :meth:`add_occupant` / :meth:`run` - online detection with energy
   accounting, returning a :class:`DetectionRun` with accuracy against
   ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ble.air import AirInterface
from repro.ble.scanner_params import ScanSettings
from repro.building.floorplan import OUTSIDE, FloorPlan
from repro.building.occupant import Occupant
from repro.comms.bt_relay import BluetoothRelayUplink
from repro.comms.uplink import BatchPolicy, Uplink
from repro.comms.wifi import WifiUplink
from repro.core.calibration import run_calibration
from repro.core.config import SystemConfig
from repro.energy.battery import Battery
from repro.energy.gating import AccelerometerGate
from repro.energy.meter import EnergyBreakdown, EnergyMeter, charge_meters
from repro.energy.profiles import PHONE_ENERGY_PROFILES, PhoneEnergyProfile
from repro.filters.ewma import EwmaFilter
from repro.filters.tracker import BeaconTracker
from repro.ibeacon.region import BeaconRegion
from repro.ml.datasets import MISSING_DISTANCE_M, MISSING_RSSI_DBM
from repro.ml.kernels import RbfKernel
from repro.ml.knn import KNeighborsClassifier
from repro.ml.metrics import ConfusionMatrix
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.proximity import ProximityClassifier
from repro.ml.svm import SupportVectorClassifier
from repro.obs.metrics import MetricsRegistry
from repro.phone.device import Smartphone
from repro.radio.channel import ChannelModel
from repro.server.bms import BuildingManagementServer
from repro.sim.rng import RngStreams, derive_seed

__all__ = ["DetectionRun", "OccupancyDetectionSystem", "charge_cycles"]


@dataclass
class PhoneRuntime:
    """Per-phone runtime state inside a detection run.

    ``energy`` is the handset's power profile, looked up once at
    registration.
    """

    phone: Smartphone
    uplink: Uplink
    meter: EnergyMeter
    energy: PhoneEnergyProfile
    gate: Optional[AccelerometerGate] = None
    predictions: List[Tuple[float, str, str]] = field(default_factory=list)

    def charge_cycle(self, period_s: float, listen_s: float, sensing: bool) -> None:
        """Charge one scan period to the meter: the one-phone case of
        :func:`charge_cycles`."""
        charge_cycles((self,), period_s, listen_s, sensing)


def charge_cycles(
    runtimes: Sequence[PhoneRuntime], period_s: float, listen_s: float, sensing: bool
) -> None:
    """Charge one scan period to each runtime's meter, in order.

    The baseline draw and, when gated, the accelerometer are charged
    every period; the BLE listen window and the idle uplink only when
    the phones sense.  Both fleet drives charge through here, in this
    order: the scalar drive one phone at a time
    (:meth:`PhoneRuntime.charge_cycle`), the columnar drive its whole
    fleet once per tick.  The meters book it through
    :func:`~repro.energy.meter.charge_meters`.

    Raises:
        ValueError: a negative period, or listen window when sensing.
    """
    if sensing and listen_s < 0.0:
        raise ValueError(f"duration must be >= 0, got {listen_s}")
    charges = []
    for rt in runtimes:
        energy = rt.energy
        cycle = [("baseline", energy.baseline_w * period_s)]
        if rt.gate is not None:
            cycle.append(("accelerometer", energy.accelerometer_w * period_s))
        if sensing:
            cycle.append(("ble_scan", energy.ble_scan_w * listen_s))
            cycle.append(("uplink_idle", rt.uplink.IDLE_POWER_W * period_s))
        charges.append(cycle)
    charge_meters([rt.meter for rt in runtimes], period_s, charges)


@dataclass(frozen=True)
class DetectionRun:
    """Outcome of an online detection run.

    Attributes:
        duration_s: simulated span.
        accuracy: fraction of evaluation points where the BMS estimate
            matched the ground-truth room.
        confusion: confusion matrix over the evaluation points.
        energy: device_id -> energy breakdown of the run.
        delivery: device_id -> uplink delivery statistics.
        predictions: device_id -> list of ``(time, truth, estimate)``.
        telemetry: the system's metrics registry after the run — its
            event log (when a recording sink is attached) and metric
            aggregates cover engine, scanner, uplink, server and
            energy sources.
    """

    duration_s: float
    accuracy: float
    confusion: ConfusionMatrix
    energy: Dict[str, EnergyBreakdown]
    delivery: Dict[str, object]
    predictions: Dict[str, List[Tuple[float, str, str]]]
    telemetry: Optional[MetricsRegistry] = None

    def average_power_w(self, device_id: str) -> float:
        """Mean power of one device over the run."""
        return self.energy[device_id].average_power_w

    def battery_life_hours(self, device_id: str, battery_wh: float) -> float:
        """Projected battery life at this run's average power."""
        power = self.average_power_w(device_id)
        if power <= 0.0:
            raise ValueError("run consumed no energy; cannot project life")
        return battery_wh * 3600.0 / power / 3600.0


class OccupancyDetectionSystem:
    """Facade over the full deployment.

    Args:
        plan: instrumented building.
        config: system configuration (defaults to the paper's).
        region_uuid: monitored proximity UUID; defaults to the UUID of
            the plan's first beacon (all beacons of one building share
            it, Section III).
        registry: telemetry registry threaded through every subsystem
            (engine, scanners, uplinks, server, energy meters).  The
            default uses a no-op sink, so instrumentation costs
            nothing; attach one backed by a
            :class:`~repro.obs.sinks.MemorySink` to collect the
            sim-time event log.
    """

    def __init__(
        self,
        plan: FloorPlan,
        config: SystemConfig = SystemConfig(),
        region_uuid=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not plan.beacons:
            raise ValueError("the floor plan has no beacons installed")
        self.plan = plan
        self.config = config
        self.obs = registry if registry is not None else MetricsRegistry()
        self.streams = RngStreams(config.seed)
        self.channel = ChannelModel(seed=derive_seed(config.seed, "channel"))
        self.air = AirInterface(plan, self.channel)
        uuid = region_uuid if region_uuid is not None else plan.beacons[0].packet.uuid
        self.region = BeaconRegion("building", uuid)
        missing = (
            MISSING_DISTANCE_M if config.feature == "distance" else MISSING_RSSI_DBM
        )
        # With accelerometer gating, silence from a phone means "the
        # user has not moved" (Section VIII), so devices must not be
        # expired for not reporting; without gating, silence means the
        # device left coverage.
        timeout = (
            3600.0 if config.accel_gating else max(3.0 * config.scan_period_s, 10.0)
        )
        self.bms = BuildingManagementServer(
            beacon_ids=plan.beacon_ids,
            classifier=self._make_classifier(),
            missing_value=missing,
            device_timeout_s=timeout,
            registry=self.obs,
        )
        self._runtimes: Dict[str, PhoneRuntime] = {}
        self.calibration_size = 0

    def _make_classifier(self):
        cfg = self.config
        if cfg.classifier == "svm":
            return SupportVectorClassifier(
                c=cfg.svm_c, kernel=RbfKernel(gamma=cfg.svm_gamma), seed=cfg.seed
            )
        if cfg.classifier == "knn":
            return KNeighborsClassifier(k=cfg.knn_k)
        if cfg.classifier == "naive_bayes":
            return GaussianNaiveBayes()
        beacon_rooms = {b.beacon_id: b.room for b in self.plan.beacons}
        missing = (
            MISSING_DISTANCE_M
            if cfg.feature == "distance"
            else MISSING_RSSI_DBM
        )
        threshold = cfg.proximity_outside_threshold
        if cfg.feature == "rssi" and threshold > 0:
            # A positive metre threshold makes no sense for RSSI mode;
            # fall back to a weak-signal bound.
            threshold = -90.0
        return ProximityClassifier(
            beacon_rooms,
            self.plan.beacon_ids,
            mode=cfg.feature,
            missing_value=missing,
            outside_label=OUTSIDE,
            outside_threshold=threshold,
        )

    # ------------------------------------------------------------------
    # Calibration and training
    # ------------------------------------------------------------------
    def calibrate(self, duration_s: float = 1800.0) -> int:
        """Run the operator's calibration walk; returns sample count."""
        dataset = run_calibration(
            self.plan,
            duration_s=duration_s,
            scan_period_s=self.config.scan_period_s,
            device=self.config.device,
            platform=self.config.platform,
            feature=self.config.feature,
            seed=derive_seed(self.config.seed, "calibration"),
            channel=self.channel,
        )
        for fingerprint, label, time in zip(
            dataset.fingerprints, dataset.labels, dataset.times
        ):
            self.bms.add_fingerprint(label, fingerprint, time)
        self.calibration_size = len(dataset)
        return len(dataset)

    def train(self) -> float:
        """Fit the BMS classifier; returns training accuracy."""
        # The proximity baseline needs no training but the BMS must be
        # marked ready; its scaler still needs fitting for API parity.
        return self.bms.train()

    # ------------------------------------------------------------------
    # Online detection
    # ------------------------------------------------------------------
    def add_occupant(self, occupant: Occupant) -> None:
        """Register an occupant carrying a phone.

        Raises:
            ValueError: duplicate occupant name.
        """
        if occupant.name in self._runtimes:
            raise ValueError(f"duplicate occupant {occupant.name!r}")
        phone = Smartphone(
            occupant,
            self.air,
            self.region,
            settings=ScanSettings(scan_period_s=self.config.scan_period_s),
            platform=self.config.platform,
            streams=self.streams,
            path_loss_exponent=self.config.path_loss_exponent,
            registry=self.obs,
        )
        phone.app.tracker = BeaconTracker(
            prototype=EwmaFilter(self.config.filter_coefficient),
            max_consecutive_losses=self.config.max_consecutive_losses,
        )
        uplink_rng = self.streams.spawn(f"uplink:{occupant.name}").get("loss")
        uplink_cls = WifiUplink if self.config.uplink == "wifi" else BluetoothRelayUplink
        batch_policy = (
            BatchPolicy(
                max_size=self.config.uplink_batch_size,
                max_delay_s=self.config.uplink_batch_delay_s,
            )
            if self.config.uplink_batch_size > 1
            else None
        )
        uplink = uplink_cls(
            self.bms.router,
            rng=uplink_rng,
            registry=self.obs,
            batch_policy=batch_policy,
        )
        profile = PHONE_ENERGY_PROFILES.get(
            occupant.device, PHONE_ENERGY_PROFILES["s3_mini"]
        )
        meter = EnergyMeter(
            Battery(profile.battery_wh), registry=self.obs, device=occupant.name
        )
        gate = None
        if self.config.accel_gating:
            gate = AccelerometerGate(
                lambda t, occ=occupant: occ.is_moving_at(t),
                grace_period_s=self.config.gating_grace_s,
            )
        phone.boot()
        self._runtimes[occupant.name] = PhoneRuntime(
            phone=phone, uplink=uplink, meter=meter, energy=profile, gate=gate
        )

    @property
    def occupants(self) -> List[str]:
        """Registered occupant names."""
        return sorted(self._runtimes)

    def run(self, duration_s: float, *, evaluate: bool = True) -> DetectionRun:
        """Run online detection for ``duration_s`` seconds.

        Every scan period each phone scans, filters, reports over its
        uplink, and the BMS updates its occupancy state; ground truth
        is recorded next to each BMS estimate for evaluation.  Energy
        is charged per cycle (baseline + scan + uplink idle + radio
        bursts accounted inside the uplink).

        Raises:
            RuntimeError: no occupants registered, or classifier
                untrained.
        """
        self._require_ready()
        period = self.config.scan_period_s
        n_cycles = int(duration_s / period)
        from repro.sim.engine import Simulator

        self._reset_runtimes()
        # The run is driven by the discrete-event engine: one periodic
        # process per phone (scan -> filter -> uplink) plus the BMS
        # history recorder, which fires at each period boundary before
        # that boundary's scan cycles (priority -1).
        if n_cycles > 0:
            sim = Simulator(registry=self.obs)
            last_cycle_start = (n_cycles - 1) * period
            for rt in self._runtimes.values():
                sim.every(
                    period,
                    lambda s, rt=rt: self._run_phone_cycle(rt, s.now),
                    start=0.0,
                    until=last_cycle_start,
                    label=f"scan:{rt.phone.device_id}",
                )
            sim.every(
                period,
                lambda s: self.bms.record_history(s.now),
                start=period,
                until=n_cycles * period,
                priority=-1,
                label="bms-history",
            )
            sim.run()
        return self._finish_run(duration_s, evaluate=evaluate)

    def _require_ready(self) -> None:
        """Validate that a detection run can start.

        Raises:
            RuntimeError: no occupants registered, or classifier
                untrained.
        """
        if not self._runtimes:
            raise RuntimeError("no occupants registered; call add_occupant()")
        if not self.bms.trained:
            raise RuntimeError("BMS classifier untrained; call calibrate() + train()")

    def _reset_runtimes(self) -> None:
        """Zero the per-phone run state (predictions, uplinks, meters)."""
        from repro.comms.uplink import DeliveryStats

        for rt in self._runtimes.values():
            rt.predictions.clear()
            rt.uplink.stats = DeliveryStats()
            rt.uplink.discard_pending()
            rt.meter.reset()

    def _finish_run(self, duration_s: float, *, evaluate: bool) -> DetectionRun:
        """Flush uplinks, settle energy and assemble the run summary.

        Shared epilogue of the event-driven :meth:`run` and the
        columnar fleet drive (:mod:`repro.fleet.columnar`), so both
        paths produce byte-identical :class:`DetectionRun` objects
        from identical runtime state.
        """
        for rt in self._runtimes.values():
            # Deliver any reports still buffered under a batch policy,
            # then fold the uplink's accumulated radio energy into the
            # meter.
            rt.uplink.flush()
            rt.meter.charge_energy("uplink_radio", rt.uplink.stats.energy_j)

        y_true: List[str] = []
        y_pred: List[str] = []
        predictions: Dict[str, List[Tuple[float, str, str]]] = {}
        for name, rt in self._runtimes.items():
            predictions[name] = list(rt.predictions)
            for _, truth, estimate in rt.predictions:
                y_true.append(truth)
                y_pred.append(estimate)
        if evaluate and y_true:
            confusion = ConfusionMatrix(y_true, y_pred, labels=self.plan.labels)
            accuracy = confusion.accuracy
        else:
            confusion = None
            accuracy = float("nan")
        return DetectionRun(
            duration_s=duration_s,
            accuracy=accuracy,
            confusion=confusion,
            energy={
                name: rt.meter.breakdown() for name, rt in self._runtimes.items()
            },
            delivery={name: rt.uplink.stats for name, rt in self._runtimes.items()},
            predictions=predictions,
            telemetry=self.obs,
        )

    def _run_phone_cycle(self, rt: PhoneRuntime, t0: float) -> None:
        with self.obs.tracer.span("core.scan_cycle", phone=rt.phone.device_id):
            self._run_phone_cycle_inner(rt, t0)

    def _run_phone_cycle_inner(self, rt: PhoneRuntime, t0: float) -> None:
        period = self.config.scan_period_s
        # A gated phone that has not moved suppresses sensing and
        # uplink: no scan, no report.
        sensing = rt.gate is None or rt.gate.should_sense(t0)
        rt.charge_cycle(period, rt.phone.scanner.settings.listen_window_s, sensing)
        if sensing:
            report = rt.phone.run_cycle(t0)
            if report is not None:
                # queue_report is send_report when no batch policy is set.
                rt.uplink.queue_report(report)
        self._record_prediction(rt, t0 + period)

    def _record_prediction(self, rt: PhoneRuntime, now: float) -> None:
        """Book the BMS estimate for ``rt`` at ``now`` beside the truth.

        Both fleet drives record through here, once per phone cycle.
        """
        truth = rt.phone.occupant.room_at(now, self.plan)
        estimate = self.bms.device_room_at(rt.phone.device_id, now)
        if estimate is None:
            estimate = OUTSIDE
        # The confusion counter lives here rather than in the BMS
        # because only the simulation knows the ground truth.
        self.obs.counter("server.confusion").inc(truth=truth, estimate=estimate)
        rt.predictions.append((now, truth, estimate))
