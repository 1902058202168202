"""Struct-of-arrays columnar fleet drive.

The scalar pipeline walks one device at a time through radio ->
scanner -> filter -> tracker objects, paying Python-level costs per
advertisement.  This module drives *all M devices of a system at once*:
per scan tick it computes the advertisement schedule once, evaluates
RSSI link budgets, Android/iOS sample surfacing, the paper's 0.65 EWMA
smoothing recurrence, loss/hold counters with eviction at the second
consecutive miss, and region enter/exit transitions as numpy passes
over ``(device, sample)`` and ``(device, beacon)`` arrays.

Equivalence contract (pinned by ``tests/test_fleet_columnar.py`` the
way ``test_radio_channel.py`` pins ``link_budget_many``): at equal
seeds a columnar run produces **byte-identical** results to
:meth:`~repro.core.system.OccupancyDetectionSystem.run` for

- the :class:`~repro.core.system.DetectionRun` (predictions, accuracy,
  confusion, per-device energy breakdowns, delivery stats),
- every app's ``reports`` and ``region_events`` sequences,
- the BMS state (occupancy history, tracked devices, databases), and
- telemetry *aggregates* of the phone/server/uplink/energy counters.

This holds because every floating-point expression is evaluated with
the same operations in the same order as the scalar path — elementwise
IEEE-754 arithmetic does not depend on array shape — and each device's
random streams are consumed in exactly the scalar draw order.  Out of
contract: the ``sim.*`` engine metrics and per-event sink streams (the
columnar drive does not run the discrete-event engine), and dict
*insertion order* of mirrored per-app caches (contents are equal).

The scalar path remains authoritative for configurations the columnar
engine does not model: accelerometer gating, non-EWMA filter banks,
and scanner types other than the stock Android/iOS ones; those raise
:class:`ColumnarUnsupported` rather than silently diverging.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ble.sniffer import BeaconFormat, sniff
from repro.building.floorplan import OUTSIDE
from repro.core.system import DetectionRun, OccupancyDetectionSystem, PhoneRuntime
from repro.energy.profiles import PHONE_ENERGY_PROFILES
from repro.filters.ewma import EwmaFilter
from repro.ibeacon.region import RegionEventKind
from repro.obs import profiling
from repro.phone.app import AppState, RangedBeacon, SightingReport
from repro.phone.scanner import AndroidScanner, IosScanner
from repro.radio.pathloss import MAX_ESTIMATED_DISTANCE_M, MIN_DISTANCE_M
from repro.sim.clock import Clock

__all__ = ["ColumnarUnsupported", "ColumnarFleetDrive", "run_columnar"]


class ColumnarUnsupported(RuntimeError):
    """The system uses a feature the columnar engine does not model."""


class ColumnarFleetDrive:
    """One system's fleet, flattened into columnar arrays.

    Args:
        system: a calibrated-and-trained
            :class:`~repro.core.system.OccupancyDetectionSystem` with
            occupants registered.  The drive mutates the system's BMS,
            uplinks, meters and app facades exactly as ``system.run``
            would.

    Raises:
        ColumnarUnsupported: accelerometer gating is enabled, a
            tracker is not EWMA-based, a scanner is not the stock
            Android/iOS model, or scan settings/regions differ across
            devices.
    """

    def __init__(self, system: OccupancyDetectionSystem) -> None:
        self.system = system
        system._require_ready()
        self.runtimes: List[PhoneRuntime] = list(system._runtimes.values())
        self._validate()
        self._build_beacon_columns()
        self._build_device_columns()

    # ------------------------------------------------------------------
    # Static precomputation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        first = self.runtimes[0].phone.scanner
        for rt in self.runtimes:
            app = rt.phone.app
            scanner = rt.phone.scanner
            if rt.gate is not None:
                raise ColumnarUnsupported(
                    "accelerometer gating is only modelled by the scalar path"
                )
            if type(scanner) not in (AndroidScanner, IosScanner):
                raise ColumnarUnsupported(
                    f"unsupported scanner type {type(scanner).__name__}"
                )
            if scanner.settings != first.settings:
                raise ColumnarUnsupported(
                    "all scanners must share one ScanSettings"
                )
            if app.region != self.system.region:
                raise ColumnarUnsupported(
                    "all apps must monitor the system region"
                )
            if app.state not in (AppState.MONITORING, AppState.RANGING):
                raise RuntimeError(
                    f"app not started (state {app.state}); call boot()"
                )
            if not isinstance(app.tracker.prototype, EwmaFilter):
                raise ColumnarUnsupported(
                    "only EwmaFilter tracker prototypes vectorise"
                )
        self.settings = first.settings

    def _build_beacon_columns(self) -> None:
        """Decode every installed beacon once and fix the column order.

        The scalar scanner sniffs one payload per surfaced beacon per
        cycle; payloads are constant per beacon, so format, region
        match and TX-power byte are static run-wide.
        """
        region = self.system.region
        eligible: List[Tuple[str, int]] = []  # (beacon_id, tx_power)
        self._decodable: List[bool] = []
        self._adv_col: List[int] = []
        for adv in self.system.air.advertisers:
            placement = adv.placement
            result = sniff(placement.packet.encode())
            packet = result.packet
            decodable = not (
                result.format is BeaconFormat.UNKNOWN or packet is None
            )
            if decodable and hasattr(packet, "to_ibeacon"):
                packet = packet.to_ibeacon()
            self._decodable.append(decodable)
            if decodable and region.matches(packet):
                eligible.append((placement.beacon_id, packet.tx_power))
                self._adv_col.append(len(eligible) - 1)
            else:
                self._adv_col.append(-1)
        # Report iteration order is sorted(beacon_id); fix the columns
        # in that order so per-row walks are trivially sorted.
        order = sorted(range(len(eligible)), key=lambda i: eligible[i][0])
        remap = {old: new for new, old in enumerate(order)}
        self._adv_col = [
            remap[c] if c >= 0 else -1 for c in self._adv_col
        ]
        eligible = [eligible[i] for i in order]
        self.beacon_ids = [bid for bid, _ in eligible]
        self.tx_power_int = [txp for _, txp in eligible]
        self.tx_power_e = np.asarray(
            [float(txp) for _, txp in eligible], dtype=float
        )
        self.n_eligible = len(eligible)

    def _build_device_columns(self) -> None:
        M, E = len(self.runtimes), self.n_eligible
        self.value = np.zeros((M, E))
        self.losses = np.zeros((M, E), dtype=np.int64)
        self.live = np.zeros((M, E), dtype=bool)
        self.seen = np.zeros((M, E), dtype=bool)
        self.ranging = np.zeros(M, dtype=bool)
        self.coeff = np.empty((M, 1))
        self.max_losses = np.empty((M, 1), dtype=np.int64)
        self.is_android = np.zeros(M, dtype=bool)
        col_of = {bid: j for j, bid in enumerate(self.beacon_ids)}
        for d, rt in enumerate(self.runtimes):
            app = rt.phone.app
            tracker = app.tracker
            self.coeff[d, 0] = tracker.prototype.coefficient
            self.max_losses[d, 0] = tracker.max_consecutive_losses
            self.is_android[d] = isinstance(rt.phone.scanner, AndroidScanner)
            self.ranging[d] = app.state is AppState.RANGING
            for source, name in (
                (tracker._filters, "tracker"),
                (app._tx_power_by_beacon, "TX-power cache"),
            ):
                unknown = set(source) - set(col_of)
                if unknown:
                    raise ColumnarUnsupported(
                        f"{name} of {app.device_id} holds beacons outside "
                        f"the monitored region: {sorted(unknown)}"
                    )
            if tracker._filters and not self.ranging[d]:
                # The scalar path never updates a MONITORING device's
                # tracker, so pre-seeded filters outside a region have
                # no columnar representation.
                raise ColumnarUnsupported(
                    f"{app.device_id} is MONITORING with live filters"
                )
            for bid, filt in tracker._filters.items():
                j = col_of[bid]
                self.live[d, j] = True
                self.value[d, j] = filt.value
                self.losses[d, j] = tracker._losses[bid]
            for bid in app._tx_power_by_beacon:
                self.seen[d, col_of[bid]] = True

    # ------------------------------------------------------------------
    # The drive
    # ------------------------------------------------------------------
    def run(self, duration_s: float, *, evaluate: bool = True) -> DetectionRun:
        """Drive the fleet for ``duration_s`` simulated seconds.

        Mirrors ``OccupancyDetectionSystem.run`` tick for tick: the
        BMS history recorder fires at each period boundary before that
        boundary's scan cycles, and devices process in registration
        order within a tick.
        """
        system = self.system
        period = system.config.scan_period_s
        n_cycles = int(duration_s / period)
        system._reset_runtimes()
        with profiling.measure("fleet.columnar_drive"):
            if n_cycles > 0:
                clock = Clock()
                system.obs.bind_clock(lambda: clock.now)
                # Accumulate tick times exactly like the event engine
                # (now + period per firing), not by multiplication.
                until = (n_cycles - 1) * period
                t0 = 0.0
                while True:
                    clock.advance_to(t0)
                    if t0 > 0.0:
                        system.bms.record_history(t0)
                    self._tick(t0)
                    nxt = t0 + period
                    if nxt > until:
                        break
                    t0 = nxt
                # Trailing history firings past the last scan tick.
                hist_until = n_cycles * period
                nxt = t0 + period
                while nxt <= hist_until:
                    clock.advance_to(nxt)
                    system.bms.record_history(nxt)
                    nxt = nxt + period
            self._mirror_app_state()
        return system._finish_run(duration_s, evaluate=evaluate)

    # -- per-tick phases -----------------------------------------------
    def _tick(self, t0: float) -> None:
        listen_end = t0 + self.settings.listen_window_s
        t_end = t0 + self.settings.scan_period_s
        M, E = len(self.runtimes), self.n_eligible

        # The tick's advertisement schedule, shared by every device.
        window = self.system.air.schedule(t0, listen_end)
        if not window.runs:
            received_total = raw_count = surfaced = np.zeros(M, dtype=np.int64)
            measured = np.zeros((M, E), dtype=bool)
            mean = np.zeros((M, E))
        else:
            received_total, raw_count, surfaced, measured, mean = (
                self._radio_pass(t0, window)
            )
        entering, exiting, reporting = self._tracker_pass(measured, mean)
        self._apply(
            t0,
            t_end,
            received_total,
            raw_count,
            surfaced,
            entering,
            exiting,
            reporting,
        )

    def _radio_pass(self, t0: float, window):
        """RSSI, reception, surfacing and per-beacon means for all M."""
        times, txp = window.times, window.tx_power_dbm
        tx_x, tx_y = window.tx[:, 0], window.tx[:, 1]
        decodable = np.asarray(self._decodable)[window.advertiser]
        # One segment of samples per advertiser with traffic:
        # (start, end, eligible column or -1).
        segs = [(start, end, self._adv_col[k]) for start, end, k in window.runs]
        system = self.system
        channel = system.channel
        n = len(times)
        M, E = len(self.runtimes), self.n_eligible

        # Receiver positions: one vectorised trajectory query per
        # device (bit-identical to per-sample position_at calls).
        rx = np.empty((M, n, 2))
        for d, rt in enumerate(self.runtimes):
            rx[d] = rt.phone.occupant.mobility.positions_at(times)
        rx_x, rx_y = rx[..., 0], rx[..., 1]

        # Deterministic budget components, same expressions as
        # link_budget_many evaluated on (M, n) instead of (n,).
        distance = np.hypot(rx_x - tx_x, rx_y - tx_y)
        mean_rssi = channel.path_loss.rssi(np.maximum(distance, 1e-6), txp)
        path_loss = txp - mean_rssi
        walls = (
            channel.wall_oracle(window.tx, rx)
            if channel.wall_oracle is not None
            else np.zeros((M, n))
        )
        shadow = channel.shadowing_db(window.tx_ids, rx_x, rx_y)

        # Stochastic components: per-device draws in the scalar order
        # (fade, noise, collision uniforms, stack-loss uniforms).
        rssi = np.empty((M, n))
        rec = np.empty((M, n), dtype=bool)
        for d, rt in enumerate(self.runtimes):
            profile = rt.phone.scanner.device
            rng = rt.phone.scanner.rng
            fade = (
                channel.fading.sample_db(rng, size=n)
                if channel.fading is not None
                else np.zeros(n)
            )
            noise = (
                rng.normal(0.0, profile.rssi_noise_db, size=n)
                if profile.rssi_noise_db > 0.0
                else np.zeros(n)
            )
            raw = (
                txp
                - path_loss[d]
                - walls[d]
                + shadow[d]
                + fade
                + profile.rx_gain_db
                + noise
            )
            rssi[d] = profile.quantise(raw)
            rec[d] = rssi[d] >= profile.sensitivity_dbm
            if channel.collision_loss_prob > 0.0:
                rec[d] &= rng.random(size=n) >= channel.collision_loss_prob
            if profile.extra_loss_prob > 0.0:
                rec[d] &= rng.random(size=n) >= profile.extra_loss_prob

        picked = self._surface(t0, times, segs, rec)

        received_total = rec.sum(axis=1)
        raw_count = picked.sum(axis=1)
        surfaced = picked[:, decodable].sum(axis=1)

        # Per-(device, beacon) mean of the surfaced samples.  The mean
        # itself is np.mean over the group's values — the exact scalar
        # reduction — only the gathering is columnar.
        measured = np.zeros((M, E), dtype=bool)
        mean = np.zeros((M, E))
        for d in range(M):
            picked_row = picked[d]
            rssi_row = rssi[d]
            for start, end, col in segs:
                if col < 0:
                    continue
                sub = picked_row[start:end]
                count = int(sub.sum())
                if count == 0:
                    continue
                values = rssi_row[start:end][sub]
                measured[d, col] = True
                mean[d, col] = (
                    values[0] if count == 1 else float(np.mean(values))
                )
        return received_total, raw_count, surfaced, measured, mean

    def _surface(self, t0, times, segs, rec) -> np.ndarray:
        """Platform surfacing masks for all devices at once.

        Android keeps the first *received* advertisement per beacon per
        hardware scan cycle (the samples arrive time-sorted, so the
        set-based dedup picks exactly what the scalar scanner picks);
        iOS surfaces everything received.
        """
        M, n = rec.shape
        picked = rec.copy()
        if not self.is_android.any():
            return picked
        cyc = ((times - t0) / AndroidScanner.HW_CYCLE_S).astype(np.int64)
        group_change = np.ones(n, dtype=bool)
        beacon_idx = np.empty(n, dtype=np.int64)
        for i, (start, end, _) in enumerate(segs):
            beacon_idx[start:end] = i
        group_change[1:] = (beacon_idx[1:] != beacon_idx[:-1]) | (
            cyc[1:] != cyc[:-1]
        )
        group_starts = np.flatnonzero(group_change)
        group_id = np.cumsum(group_change) - 1
        android = np.flatnonzero(self.is_android)
        cs = np.cumsum(rec[android], axis=1)
        base = (cs - rec[android])[:, group_starts]
        rank = cs - base[:, group_id]
        picked[android] = rec[android] & (rank == 1)
        return picked

    def _tracker_pass(self, measured, mean):
        """EWMA update, loss counters, eviction, region transitions —
        one numpy pass over the (device, beacon) arrays."""
        in_region = measured.any(axis=1)
        entering = ~self.ranging & in_region
        active = self.ranging | entering

        cont = measured & self.live
        new = measured & ~self.live
        c = self.coeff
        self.value = np.where(
            cont, c * self.value + (1.0 - c) * mean, self.value
        )
        self.value = np.where(new, mean, self.value)
        miss = self.live & ~measured
        self.losses = np.where(measured, 0, self.losses)
        self.losses = np.where(miss, self.losses + 1, self.losses)
        evict = miss & (self.losses >= self.max_losses)
        self.live = (self.live | measured) & ~evict
        self.seen |= measured

        any_live = self.live.any(axis=1)
        exiting = active & ~any_live
        reporting = active & any_live
        self.ranging = reporting
        self.seen[exiting] = False
        return entering, exiting, reporting

    def _apply(
        self,
        t0,
        t_end,
        received_total,
        raw_count,
        surfaced,
        entering,
        exiting,
        reporting,
    ) -> None:
        """Per-device epilogue, in registration order.

        Energy charges, scanner telemetry, region events, report
        uploads and ground-truth predictions all touch *shared* state
        (registry counters, the BMS, batched uplinks), so they replay
        in the exact scalar order — the numpy passes above did the
        heavy lifting; this loop is O(M) cheap calls.
        """
        system = self.system
        obs = system.obs
        period = system.config.scan_period_s
        c_cycles = obs.counter("phone.scan_cycles")
        c_received = obs.counter("phone.adverts_received")
        c_surfaced = obs.counter("phone.samples_surfaced")
        c_filtered = obs.counter("phone.samples_filtered")
        c_drops = obs.counter("phone.decode_drops")
        c_confusion = obs.counter("server.confusion")
        for d, rt in enumerate(self.runtimes):
            app = rt.phone.app
            profile = PHONE_ENERGY_PROFILES.get(
                rt.phone.occupant.device, PHONE_ENERGY_PROFILES["s3_mini"]
            )
            rt.meter.advance(period)
            rt.meter.charge_power("baseline", profile.baseline_w, period)
            rt.meter.charge_power(
                "ble_scan", profile.ble_scan_w, self.settings.listen_window_s
            )
            rt.meter.charge_power(
                "uplink_idle", rt.uplink.IDLE_POWER_W, period
            )
            label = rt.phone.scanner._obs_label
            attrs = {"phone": label} if label else {}
            received = int(received_total[d])
            raw = int(raw_count[d])
            surf = int(surfaced[d])
            c_cycles.inc(**attrs)
            c_received.inc(received, **attrs)
            c_surfaced.inc(surf, **attrs)
            c_filtered.inc(received - raw, **attrs)
            if raw != surf:
                c_drops.inc(raw - surf, **attrs)
            if entering[d]:
                app._emit_region_event(t_end, RegionEventKind.ENTER)
                app.state = AppState.RANGING
            if exiting[d]:
                app._emit_region_event(t_end, RegionEventKind.EXIT)
                app.state = AppState.MONITORING
                app._tx_power_by_beacon.clear()
            if reporting[d]:
                report = self._build_report(d, app, t_end)
                app.reports.append(report)
                if app.on_report is not None:
                    app.on_report(report)
                rt.uplink.queue_report(report)
            now = t0 + period
            truth = rt.phone.occupant.room_at(now, system.plan)
            estimate = system.bms.device_room_at(app.device_id, now)
            if estimate is None:
                estimate = OUTSIDE
            c_confusion.inc(truth=truth, estimate=estimate)
            rt.predictions.append((now, truth, estimate))

    def _build_report(self, d: int, app, t_end: float) -> SightingReport:
        live_row = self.live[d]
        value_row = self.value[d]
        distance = np.clip(
            np.power(
                10.0,
                (self.tx_power_e - value_row)
                / (10.0 * app.path_loss_exponent),
            ),
            MIN_DISTANCE_M,
            MAX_ESTIMATED_DISTANCE_M,
        )
        held_row = self.losses[d] > 0
        beacons = [
            RangedBeacon(
                beacon_id=self.beacon_ids[j],
                rssi=float(value_row[j]),
                distance_m=float(distance[j]),
                held=bool(held_row[j]),
            )
            for j in np.flatnonzero(live_row)
        ]
        return SightingReport(
            device_id=app.device_id, time=t_end, beacons=beacons
        )

    def _mirror_app_state(self) -> None:
        """Write the columnar arrays back into the app facades.

        After the drive, each app's state machine, tracker and
        TX-power cache look exactly as if the scalar path had run
        (dict contents equal; insertion order is sorted rather than
        first-seen, which nothing in the pipeline observes).
        """
        for d, rt in enumerate(self.runtimes):
            app = rt.phone.app
            tracker = app.tracker
            app.state = (
                AppState.RANGING if self.ranging[d] else AppState.MONITORING
            )
            tracker.reset()
            for j in np.flatnonzero(self.live[d]):
                filt = tracker.prototype.clone()
                filt.update(float(self.value[d, j]))
                tracker._filters[self.beacon_ids[j]] = filt
                tracker._losses[self.beacon_ids[j]] = int(self.losses[d, j])
            app._tx_power_by_beacon.clear()
            for j in np.flatnonzero(self.seen[d]):
                app._tx_power_by_beacon[self.beacon_ids[j]] = (
                    self.tx_power_int[j]
                )


def run_columnar(
    system: OccupancyDetectionSystem,
    duration_s: float,
    *,
    evaluate: bool = True,
) -> DetectionRun:
    """Drive ``system``'s fleet with the columnar engine.

    Byte-identical to ``system.run(duration_s)`` for everything in the
    module's equivalence contract, at a fraction of the per-device
    cost.

    Raises:
        ColumnarUnsupported: the configuration needs the scalar path.
        RuntimeError: no occupants registered or classifier untrained.
    """
    return ColumnarFleetDrive(system).run(duration_s, evaluate=evaluate)
