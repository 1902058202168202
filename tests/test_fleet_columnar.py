"""Columnar fleet drive: byte-identical to the scalar event loop.

The struct-of-arrays engine (:mod:`repro.fleet.columnar`) promises
*bit*-equivalence with :meth:`OccupancyDetectionSystem.run` — same
DetectionRun, same reports, same region-event sequences, same telemetry
aggregates — across platforms, fleet sizes and seeds.  These tests pin
that contract the way ``test_radio_channel`` pins ``link_budget_many``:
by running both engines from identical initial states and comparing
exact floats, never approximations.
"""

import uuid

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.building.mobility import RandomWaypoint
from repro.building.occupant import Occupant
from repro.building.presets import make_beacon, two_room_corridor
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem
from repro.fleet import FleetLoadGenerator
from repro.fleet.columnar import (
    ColumnarFleetDrive,
    ColumnarUnsupported,
    run_columnar,
)
from repro.ibeacon.region import RegionEventKind
from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import derive_seed

#: Counter aggregates inside the equivalence contract (the ``sim.*``
#: engine metrics are scalar-path-only by design).
CONTRACT_COUNTERS = (
    "phone.scan_cycles",
    "phone.adverts_received",
    "phone.samples_surfaced",
    "phone.samples_filtered",
    "phone.decode_drops",
    "server.sightings",
    "server.classifications",
    "server.batches",
    "server.expired_devices",
    "server.confusion",
    "energy.joules",
)


def build_system(
    platform="android", devices=2, seed=0, make_plan=two_room_corridor, **config_kwargs
):
    plan = make_plan()
    config = SystemConfig(
        seed=seed,
        platform=platform,
        uplink_batch_size=config_kwargs.pop("uplink_batch_size", 4),
        **config_kwargs,
    )
    system = OccupancyDetectionSystem(plan, config, registry=MetricsRegistry())
    system.calibrate(duration_s=60.0)
    system.train()
    for i in range(devices):
        mobility = RandomWaypoint(plan, seed=derive_seed(seed, f"fleet:{i}"))
        system.add_occupant(Occupant(f"dev-{i:04d}", mobility))
    return system


def counter_state(system):
    out = {}
    for name in CONTRACT_COUNTERS:
        counter = system.obs.counter(name)
        out[name] = (
            counter.value,
            tuple(sorted((str(k), v) for k, v in counter.series.items())),
        )
    return out


def assert_equivalent(scalar_system, columnar_system, run_a, run_b):
    """Byte-for-byte comparison of everything in the contract."""
    # DetectionRun: repr equality on floats means bit equality (repr of
    # a float is shortest-roundtrip), and predictions are tuples of
    # floats and strings compared exactly.
    assert repr(run_a.accuracy) == repr(run_b.accuracy)
    assert run_a.predictions == run_b.predictions
    if run_a.confusion is not None or run_b.confusion is not None:
        assert repr(vars(run_a.confusion)) == repr(vars(run_b.confusion))
    assert set(run_a.energy) == set(run_b.energy)
    for name in run_a.energy:
        assert repr(run_a.energy[name]) == repr(run_b.energy[name])
        assert repr(run_a.delivery[name]) == repr(run_b.delivery[name])
    # App facades: reports, region events, state machine, caches.
    for rt_a, rt_b in zip(
        scalar_system._runtimes.values(), columnar_system._runtimes.values()
    ):
        app_a, app_b = rt_a.phone.app, rt_b.phone.app
        assert app_a.reports == app_b.reports
        assert app_a.region_events == app_b.region_events
        assert app_a.state == app_b.state
        assert app_a._tx_power_by_beacon == app_b._tx_power_by_beacon
        assert sorted(app_a.tracker._filters) == sorted(app_b.tracker._filters)
        for bid, filt in app_a.tracker._filters.items():
            assert repr(filt.value) == repr(app_b.tracker._filters[bid].value)
        assert app_a.tracker._losses == app_b.tracker._losses
    # Server state and telemetry aggregates.
    assert repr(scalar_system.bms.history._entries) == repr(
        columnar_system.bms.history._entries
    )
    assert counter_state(scalar_system) == counter_state(columnar_system)


def run_both(platform, devices, duration, seed, **config_kwargs):
    scalar = build_system(platform, devices, seed, **config_kwargs)
    columnar = build_system(platform, devices, seed, **config_kwargs)
    run_a = scalar.run(duration)
    run_b = run_columnar(columnar, duration)
    assert_equivalent(scalar, columnar, run_a, run_b)
    return scalar, columnar, run_a, run_b


class TestColumnarEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        platform=st.sampled_from(["android", "ios"]),
        devices=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        duration=st.sampled_from([6.0, 14.0, 21.0]),
    )
    def test_property_reports_and_events_identical(
        self, platform, devices, seed, duration
    ):
        """For random platforms, fleet sizes, seeds and durations the
        two engines produce identical FleetReport ingredients, region
        events and telemetry — including held/evicted beacon edges hit
        naturally by the random trajectories."""
        run_both(platform, devices, duration, seed)

    def test_android_fleet(self):
        run_both("android", 3, 30.0, seed=1)

    def test_ios_fleet(self):
        run_both("ios", 2, 20.0, seed=2)

    def test_held_and_evicted_beacons(self):
        """A scripted walk-away hits the hold-then-evict path: beacons
        are held through the first missed scan and evicted on the
        second, triggering a region EXIT in both engines alike."""
        from repro.building.mobility import WaypointPath
        from repro.building.geometry import Point

        def build(seed=5):
            system = build_system("android", 0, seed)
            path = WaypointPath(
                [Point(6.0, 1.5), Point(5000.0, 1.5)],
                speed_mps=800.0,
                start_time=6.0,
            )
            system.add_occupant(Occupant("dev-0000", path))
            return system

        scalar, columnar = build(), build()
        run_a = scalar.run(30.0)
        run_b = run_columnar(columnar, 30.0)
        assert_equivalent(scalar, columnar, run_a, run_b)
        kinds = [
            e.kind
            for rt in scalar._runtimes.values()
            for e in rt.phone.app.region_events
        ]
        assert RegionEventKind.ENTER in kinds
        assert RegionEventKind.EXIT in kinds
        # At least one report carried a held (lost-but-not-evicted)
        # estimate on the way out.
        reports = [
            r
            for rt in scalar._runtimes.values()
            for r in rt.phone.app.reports
        ]
        assert any(b.held for r in reports for b in r.beacons)

    def test_fractional_final_cycle(self):
        """Durations that are not a multiple of the scan period drop
        the trailing fraction in both engines alike."""
        run_both("android", 1, 7.0, seed=3)

    def test_sub_period_duration_runs_nothing(self):
        scalar, columnar, run_a, run_b = run_both("ios", 1, 0.5, seed=4)
        assert run_a.predictions == {"dev-0000": []}
        assert np.isnan(run_b.accuracy)

    def test_unbatched_uplink(self):
        run_both("android", 2, 20.0, seed=6, uplink_batch_size=1)

    def test_mirrored_state_supports_reinspection(self):
        """After a columnar run the scalar facades hold the authentic
        end state: a fresh drive rebuilt from them validates cleanly
        (``ColumnarFleetDrive`` re-reads app/tracker state)."""
        _, columnar, _, _ = run_both("android", 2, 20.0, seed=7)
        drive = ColumnarFleetDrive(columnar)
        assert drive.live.any() or not any(
            rt.phone.app.tracker.live_beacons
            for rt in columnar._runtimes.values()
        )


#: Handset profiles of the mixed fleet: Fig. 11's two Android phones,
#: an iPhone and the receiver with neither quantisation nor noise.
HANDSETS = ("s3_mini", "nexus_5", "iphone_5s", "ideal")


def build_mixed_system(platform, seed):
    """A fleet whose handset profiles interleave, so each profile's
    rows of the columnar RSSI draw are scattered across the fleet."""
    system = build_system(platform, 0, seed)
    for i in range(2 * len(HANDSETS)):
        mobility = RandomWaypoint(system.plan, seed=derive_seed(seed, f"fleet:{i}"))
        system.add_occupant(
            Occupant(f"dev-{i:04d}", mobility, device=HANDSETS[i % len(HANDSETS)])
        )
    return system


class TestMixedHandsets:
    @pytest.mark.parametrize("platform", ["android", "ios"])
    def test_mixed_handset_fleet_is_identical(self, platform):
        """One RSSI draw per handset profile keeps every phone's own
        gain, noise, quantisation, sensitivity and stack loss."""
        scalar = build_mixed_system(platform, seed=9)
        columnar = build_mixed_system(platform, seed=9)
        run_a = scalar.run(30.0)
        run_b = run_columnar(columnar, 30.0)
        assert_equivalent(scalar, columnar, run_a, run_b)
        reporting = {
            rt.phone.scanner.device.name
            for rt in columnar._runtimes.values()
            if rt.phone.app.reports
        }
        assert reporting == set(HANDSETS)


def corridor_with_foreign_beacon():
    """``two_room_corridor`` plus a beacon of another UUID by the door."""
    from repro.building.geometry import Point

    plan = two_room_corridor()
    plan.add_beacon(
        make_beacon(
            9,
            Point(6.5, 1.5),
            "room_b",
            major=9,
            uuid=uuid.UUID("00000000-0000-4000-8000-00000000f0f0"),
        )
    )
    return plan


class TestForeignBeacon:
    @pytest.mark.parametrize("platform", ["android", "ios"])
    def test_out_of_region_beacon_is_heard_but_never_reported(self, platform):
        """Both drives hear and decode the foreign beacon (one decode
        table), keep it out of every report, and stay byte-identical."""
        scalar, columnar, _, _ = run_both(
            platform, 3, 60.0, seed=8, make_plan=corridor_with_foreign_beacon
        )
        air = scalar.air
        foreign = air.advertisers[-1].placement.beacon_id
        assert foreign == "9-9"
        assert air.decoded[-1] is not None
        assert not scalar.region.matches(air.decoded[-1])
        reports = [
            r for rt in columnar._runtimes.values() for r in rt.phone.app.reports
        ]
        assert reports
        assert all(foreign not in r.distances() for r in reports)


class TestColumnarLoadgen:
    def make(self, **kwargs):
        defaults = dict(
            devices=2,
            duration_s=30.0,
            batch_size=4,
            batch_delay_s=8.0,
            calibration_s=120.0,
            seed=1,
            plan=two_room_corridor(),
        )
        defaults.update(kwargs)
        return FleetLoadGenerator(**defaults)

    def test_fleet_report_identical(self):
        assert self.make(columnar=True).run() == self.make().run()

    def test_sharded_columnar_identical_to_sharded_scalar(self):
        scalar = self.make(devices=4, shards=2).run()
        columnar = self.make(devices=4, shards=2, columnar=True).run()
        assert columnar == scalar

    def test_fleet_gauges_published(self):
        registry = MetricsRegistry()
        report = self.make(columnar=True, registry=registry).run()
        assert registry.gauge("fleet.devices").value == 2.0
        assert registry.gauge("fleet.throughput_rps").value == pytest.approx(
            report.throughput_rps
        )

    def test_profiled_columnar_report_unchanged(self):
        plain = self.make(columnar=True).run()
        profiled = self.make(columnar=True, profile=True).run()
        assert profiled == plain  # profile field excluded from compare
        assert profiled.profile is not None
        assert "fleet.columnar_drive" in profiled.profile["counts"]


class TestColumnarGuards:
    def test_accel_gating_unsupported(self):
        system = build_system("android", 1, seed=0, accel_gating=True)
        with pytest.raises(ColumnarUnsupported):
            ColumnarFleetDrive(system)

    def test_foreign_scanner_unsupported(self):
        system = build_system("android", 1, seed=0)
        rt = next(iter(system._runtimes.values()))

        class OddScanner(type(rt.phone.scanner)):
            pass

        rt.phone.scanner.__class__ = OddScanner
        with pytest.raises(ColumnarUnsupported):
            ColumnarFleetDrive(system)

    def test_non_ewma_tracker_unsupported(self):
        from repro.filters.moving_average import MovingAverageFilter

        system = build_system("android", 1, seed=0)
        rt = next(iter(system._runtimes.values()))
        rt.phone.app.tracker.prototype = MovingAverageFilter(3)
        with pytest.raises(ColumnarUnsupported):
            ColumnarFleetDrive(system)

    def test_unbooted_app_rejected(self):
        from repro.phone.app import AppState

        system = build_system("android", 1, seed=0)
        rt = next(iter(system._runtimes.values()))
        rt.phone.app.state = AppState.OFF
        with pytest.raises(RuntimeError):
            ColumnarFleetDrive(system)

    def test_no_occupants_rejected(self):
        plan = two_room_corridor()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=0))
        system.calibrate(duration_s=60.0)
        system.train()
        with pytest.raises(RuntimeError):
            run_columnar(system, 10.0)
