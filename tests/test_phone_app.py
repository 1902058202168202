"""Tests for the client app state machine (paper Figure 3)."""

import numpy as np
import pytest

from repro.ble.air import AirInterface
from repro.building.geometry import Point
from repro.building.mobility import StaticPosition
from repro.building.presets import BUILDING_UUID
from repro.ibeacon.region import BeaconRegion, RegionEventKind
from repro.phone.app import AppState, OccupancyApp
from repro.phone.scanner import AndroidScanner
from repro.radio.channel import ChannelModel
from repro.radio.pathloss import distance_from_rssi


def make_app(plan, *, position=None, region=None, seed=0):
    air = AirInterface(
        plan,
        ChannelModel(shadowing_sigma_db=0.0, fading=None, collision_loss_prob=0.0),
    )
    scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(seed))
    region = region if region is not None else BeaconRegion("building", BUILDING_UUID)
    app = OccupancyApp("phone-1", scanner, region)
    return app


def at(point):
    return StaticPosition(point)


class TestLifecycle:
    def test_initial_state_off(self, lab_plan):
        assert make_app(lab_plan).state is AppState.OFF

    def test_boot_starts_monitoring(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        assert app.state is AppState.MONITORING

    def test_double_boot_rejected(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        with pytest.raises(RuntimeError):
            app.boot()

    def test_cycle_before_boot_rejected(self, lab_plan):
        app = make_app(lab_plan)
        with pytest.raises(RuntimeError):
            app.run_cycle(at(Point(1, 1)), 0.0)

    def test_shutdown_resets(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        app.run_cycle(at(Point(1.5, 4.0)), 0.0)
        app.shutdown()
        assert app.state is AppState.OFF
        assert app.tracker.live_beacons == []

    def test_shutdown_clears_tx_power_cache(self, lab_plan):
        """Regression: shutdown used to leak the TX-power cache, one
        entry per beacon ever ranged."""
        app = make_app(lab_plan)
        app.boot()
        app.run_cycle(at(Point(1.5, 4.0)), 0.0)
        assert app._tx_power_by_beacon  # learned during ranging
        app.shutdown()
        assert app._tx_power_by_beacon == {}

    def test_region_exit_clears_tx_power_cache(self, lab_plan):
        """Regression: the cache must not survive a region exit."""
        app = make_app(lab_plan)
        app.boot()
        app.run_cycle(at(Point(1.5, 4.0)), 0.0)
        assert app._tx_power_by_beacon
        app.run_cycle(at(Point(500.0, 500.0)), 2.0)
        app.run_cycle(at(Point(500.0, 500.0)), 4.0)
        assert app.state is AppState.MONITORING
        assert app._tx_power_by_beacon == {}
        # Re-entry re-learns the calibration byte from the payload.
        app.run_cycle(at(Point(1.5, 4.0)), 6.0)
        assert app._tx_power_by_beacon


class TestMonitoringToRanging:
    def test_enter_event_on_first_sighting(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        report = app.run_cycle(at(Point(1.5, 4.0)), 0.0)
        assert app.state is AppState.RANGING
        assert report is not None
        assert app.region_events[0].kind is RegionEventKind.ENTER

    def test_no_event_when_out_of_range(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        report = app.run_cycle(at(Point(500.0, 500.0)), 0.0)
        assert report is None
        assert app.state is AppState.MONITORING
        assert app.region_events == []

    def test_exit_after_two_lost_cycles(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        app.run_cycle(at(Point(1.5, 4.0)), 0.0)
        # Walk far away: beacon still held 1 cycle, evicted on the 2nd.
        app.run_cycle(at(Point(500.0, 500.0)), 2.0)
        assert app.state is AppState.RANGING  # held through first loss
        app.run_cycle(at(Point(500.0, 500.0)), 4.0)
        assert app.state is AppState.MONITORING
        kinds = [e.kind for e in app.region_events]
        assert kinds == [RegionEventKind.ENTER, RegionEventKind.EXIT]

    def test_wrong_region_uuid_never_enters(self, lab_plan):
        foreign = BeaconRegion(
            "foreign", "00000000-0000-0000-0000-00000000dead"
        )
        app = make_app(lab_plan, region=foreign)
        app.boot()
        report = app.run_cycle(at(Point(1.5, 4.0)), 0.0)
        assert report is None
        assert app.state is AppState.MONITORING


class TestRangingReports:
    def test_report_contains_distances(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        report = app.run_cycle(at(Point(2.5, 4.0)), 0.0)
        assert report.device_id == "phone-1"
        beacon = report.beacons[0]
        assert beacon.beacon_id == "1-1"
        # True distance 2 m; quiet channel, so the estimate is close.
        assert 1.0 < beacon.distance_m < 4.0

    def test_reports_accumulate(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        for k in range(4):
            app.run_cycle(at(Point(2.5, 4.0)), 2.0 * k)
        assert len(app.reports) == 4

    def test_on_report_callback_invoked(self, lab_plan):
        received = []
        app = make_app(lab_plan)
        app.on_report = received.append
        app.boot()
        app.run_cycle(at(Point(2.5, 4.0)), 0.0)
        assert len(received) == 1

    def test_held_flag_set_on_missed_scan(self, corridor_plan):
        app = make_app(corridor_plan)
        app.boot()
        app.run_cycle(at(Point(1.0, 1.5)), 0.0)
        # Move far beyond even the ideal device's sensitivity; the
        # next cycle surfaces nothing, so every estimate is held.
        report = app.run_cycle(at(Point(-5000.0, 1.5)), 2.0)
        assert report is not None
        assert all(b.held for b in report.beacons)

    def test_distances_equal_per_beacon_ranging(self, corridor_plan):
        """The report's row of distances, ranged in one call, equals a
        scalar ``distance_from_rssi`` per beacon, bitwise."""
        app = make_app(corridor_plan, seed=3)
        app.path_loss_exponent = 2.7
        app.boot()
        for k in range(6):
            app.run_cycle(at(Point(2.0 + 0.5 * k, 1.5)), 2.0 * k)
        assert app.reports and max(len(r.beacons) for r in app.reports) > 1
        for report in app.reports:
            for beacon in report.beacons:
                tx_power = app._tx_power_by_beacon[beacon.beacon_id]
                expected = distance_from_rssi(beacon.rssi, float(tx_power), 2.7)
                assert repr(beacon.distance_m) == repr(expected)

    def test_report_distances_dict(self, lab_plan):
        app = make_app(lab_plan)
        app.boot()
        report = app.run_cycle(at(Point(2.5, 4.0)), 0.0)
        assert set(report.distances()) == {"1-1"}
        assert set(report.rssis()) == {"1-1"}

    def test_filter_smooths_across_cycles(self, lab_plan):
        app = make_app(lab_plan, seed=5)
        app.boot()
        estimates = []
        for k in range(20):
            report = app.run_cycle(at(Point(2.5, 4.0)), 2.0 * k)
            estimates.append(report.beacons[0].rssi)
        # Later values move less than early ones on a static link.
        early_deltas = np.abs(np.diff(estimates[:5]))
        late_deltas = np.abs(np.diff(estimates[-5:]))
        assert np.mean(late_deltas) <= np.mean(early_deltas) + 1.0


class TestValidation:
    def test_bad_exponent_rejected(self, lab_plan):
        air = AirInterface(lab_plan)
        scanner = AndroidScanner(air, device="ideal")
        with pytest.raises(ValueError):
            OccupancyApp(
                "p", scanner, BeaconRegion("b", BUILDING_UUID), path_loss_exponent=0.0
            )
