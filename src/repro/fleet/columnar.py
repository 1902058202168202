"""Struct-of-arrays columnar fleet drive.

The scalar pipeline walks one device at a time through radio ->
scanner -> filter -> tracker objects.  This module drives *all M
devices of a system at once*, and takes every per-phone rule from the
one home the scalar phone stack calls too.  Each per-tick radio step
is one array pass over the fleet:

- the advertising schedule: :meth:`~repro.ble.air.AirInterface.schedule`;
- receiver positions: :func:`~repro.building.mobility.positions_block`,
  one ``(device, sample)`` block whose random-waypoint rows share one
  interpolation;
- the RSSI draw: :meth:`~repro.radio.channel.ChannelModel.seed_free_parts`
  on ``(device, sample)`` arrays (the wall function and the shadowing
  gather run inside it), then
  :meth:`~repro.radio.channel.ChannelModel.draw_rssi` once per handset
  profile on that profile's rows, each device drawing from its own
  stream;
- Android surfacing and the cycle mean:
  :func:`~repro.phone.scanner.surface_android` and
  :func:`~repro.phone.scanner.surfaced_means`;
- payload decode: the air interface's ``decoded`` table;
- ranging: :func:`~repro.radio.pathloss.distance_from_rssi`, once on
  the ``(device, beacon)`` block;
- cycle bookkeeping: ``PhoneRuntime.charge_cycle``,
  :meth:`~repro.phone.scanner.Scanner.count_cycle` and the system's
  prediction record.

What stays here is columnar: the tick loop; the paper's 0.65 EWMA
recurrence, loss/hold counters with eviction at the second consecutive
miss and region enter/exit transitions as one numpy pass over
``(device, beacon)`` arrays; the ordered per-device epilogue, whose
report rows are read from the ranged block; and the mirror of the
arrays back into the app facades.

Equivalence contract (pinned by ``tests/test_fleet_columnar.py``): at
equal seeds a columnar run produces **byte-identical** results to
:meth:`~repro.core.system.OccupancyDetectionSystem.run` for

- the :class:`~repro.core.system.DetectionRun` (predictions, accuracy,
  confusion, per-device energy breakdowns, delivery stats),
- every app's ``reports`` and ``region_events`` sequences,
- the BMS state (occupancy history, tracked devices, databases), and
- telemetry *aggregates* of the phone/server/uplink/energy counters.

This holds because the shared rules are elementwise, and elementwise
IEEE-754 arithmetic does not depend on array shape; the EWMA pass
evaluates the scalar filter's expression in the same order; and each
device's random stream is consumed in exactly the scalar draw order.
Out of contract: the ``sim.*`` engine metrics and per-event sink
streams (the columnar drive does not run the discrete-event engine),
and dict *insertion order* of mirrored per-app caches (contents are
equal).

The scalar path remains authoritative for configurations the columnar
engine does not model: accelerometer gating, non-EWMA filter banks,
and scanner types other than the stock Android/iOS ones; those raise
:class:`ColumnarUnsupported` rather than silently diverging.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.building.mobility import positions_block
from repro.core.system import DetectionRun, OccupancyDetectionSystem, PhoneRuntime
from repro.filters.ewma import EwmaFilter
from repro.ibeacon.region import RegionEventKind
from repro.obs import profiling
from repro.phone.app import AppState, RangedBeacon, SightingReport
from repro.phone.scanner import (
    AndroidScanner,
    IosScanner,
    surface_android,
    surfaced_means,
)
from repro.radio.pathloss import distance_from_rssi
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
        """Fix one column per in-region beacon.

        Format, region match and TX-power byte come from the air
        interface's ``decoded`` table, which the scalar scanner reads
        too.  Report iteration order is sorted(beacon_id); the columns
        follow it so per-row walks are trivially sorted.
        """
        air = self.system.air
        decoded = air.decoded
        in_region = sorted(
            (adv.placement.beacon_id, k)
            for k, adv in enumerate(air.advertisers)
            if decoded[k] is not None and self.system.region.matches(decoded[k])
        )
        self._decodable = np.array([packet is not None for packet in decoded])
        self._adv_col = [-1] * len(decoded)
        for j, (_, k) in enumerate(in_region):
            self._adv_col[k] = j
        self.beacon_ids = [bid for bid, _ in in_region]
        self.tx_power_int = [decoded[k].tx_power for _, k in in_region]
        self.tx_power_e = np.asarray(self.tx_power_int, dtype=float)
        self.n_eligible = len(in_region)

    def _build_device_columns(self) -> None:
        M, E = len(self.runtimes), self.n_eligible
        self.value = np.zeros((M, E))
        self.losses = np.zeros((M, E), dtype=np.int64)
        self.live = np.zeros((M, E), dtype=bool)
        self.seen = np.zeros((M, E), dtype=bool)
        self.ranging = np.zeros(M, dtype=bool)
        self.coeff = np.empty((M, 1))
        self.max_losses = np.empty((M, 1), dtype=np.int64)
        self.exponent = np.empty((M, 1))
        self.is_android = np.zeros(M, dtype=bool)
        # Rows per handset profile, in first-seen order: the RSSI draw
        # runs once per profile.
        rows_of = {}
        col_of = {bid: j for j, bid in enumerate(self.beacon_ids)}
        for d, rt in enumerate(self.runtimes):
            app = rt.phone.app
            tracker = app.tracker
            self.coeff[d, 0] = tracker.prototype.coefficient
            self.max_losses[d, 0] = tracker.max_consecutive_losses
            self.exponent[d, 0] = app.path_loss_exponent
            self.is_android[d] = isinstance(rt.phone.scanner, AndroidScanner)
            rows_of.setdefault(rt.phone.scanner.device, []).append(d)
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
        self.profiles = [
            (device, np.array(rows), [self.runtimes[d].phone.scanner for d in rows])
            for device, rows in rows_of.items()
        ]

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
        """RSSI, reception, surfacing and per-beacon means for all M.

        Every step is one array pass over the fleet, except the RSSI
        draw, which runs once per handset profile and reads each
        device's own stream in the scalar order.
        """
        channel = self.system.channel
        times, txp = window.times, window.tx_power_dbm
        M, E, n = len(self.runtimes), self.n_eligible, len(times)

        rx = positions_block(
            [rt.phone.occupant.mobility for rt in self.runtimes], times
        )
        _, path_loss, walls, shadow = channel.seed_free_parts(
            window.tx_ids, window.tx, rx, txp
        )
        rssi = np.empty((M, n))
        rec = np.empty((M, n), dtype=bool)
        for device, rows, scanners in self.profiles:
            _, _, rssi[rows], rec[rows] = channel.draw_rssi(
                txp,
                path_loss[rows],
                walls[rows],
                shadow[rows],
                device,
                [scanner.rng for scanner in scanners],
            )

        # iOS surfaces everything received.
        picked = rec.copy()
        android = self.is_android
        picked[android] = surface_android(
            rec[android], times, window.advertiser, t0
        )
        received_total = rec.sum(axis=1)
        raw_count = picked.sum(axis=1)
        surfaced = picked[:, self._decodable[window.advertiser]].sum(axis=1)

        # Per-(device, beacon) means, one cell per advertiser's run of
        # schedule columns; out-of-region runs are dropped.
        count, run_mean = surfaced_means(
            rssi, picked, [start for start, _, _ in window.runs]
        )
        runs, cols = [], []
        for r, (_, _, k) in enumerate(window.runs):
            if self._adv_col[k] >= 0:
                runs.append(r)
                cols.append(self._adv_col[k])
        measured = np.zeros((M, E), dtype=bool)
        mean = np.zeros((M, E))
        measured[:, cols] = count[:, runs] > 0
        mean[:, cols] = run_mean[:, runs]
        return received_total, raw_count, surfaced, measured, mean

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
        period = system.config.scan_period_s
        listen = self.settings.listen_window_s
        rows = self._ranged_rows() if reporting.any() else None
        for d, rt in enumerate(self.runtimes):
            app = rt.phone.app
            rt.charge_cycle(period, listen, sensing=True)
            rt.phone.scanner.count_cycle(
                int(received_total[d]), int(raw_count[d]), int(surfaced[d])
            )
            if entering[d]:
                app._emit_region_event(t_end, RegionEventKind.ENTER)
                app.state = AppState.RANGING
            if exiting[d]:
                app._emit_region_event(t_end, RegionEventKind.EXIT)
                app.state = AppState.MONITORING
                app._tx_power_by_beacon.clear()
            if reporting[d]:
                report = self._build_report(d, app, t_end, rows)
                app.reports.append(report)
                if app.on_report is not None:
                    app.on_report(report)
                rt.uplink.queue_report(report)
            system._record_prediction(rt, t0 + period)

    def _ranged_rows(self):
        """The tick's report columns as per-device lists: smoothed RSSI,
        ranged distance (one call over the ``(device, beacon)`` block),
        held flag and liveness."""
        distance = distance_from_rssi(self.value, self.tx_power_e, self.exponent)
        return (
            self.value.tolist(),
            distance.tolist(),
            (self.losses > 0).tolist(),
            self.live.tolist(),
        )

    def _build_report(self, d: int, app, t_end: float, rows) -> SightingReport:
        values, distances, held, live = rows
        beacons = [
            RangedBeacon(
                beacon_id=beacon_id, rssi=value, distance_m=distance, held=hold
            )
            for beacon_id, value, distance, hold, alive in zip(
                self.beacon_ids, values[d], distances[d], held[d], live[d]
            )
            if alive
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
