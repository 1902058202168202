"""Integration tests for the full occupancy-detection system."""

import pytest

from repro.building.geometry import Point
from repro.building.mobility import StaticPosition
from repro.building.occupant import Occupant
from repro.building.presets import test_house as make_test_house
from repro.core.config import SystemConfig
from repro.core.system import OccupancyDetectionSystem, charge_cycles
from repro.energy.gating import AccelerometerGate
from repro.obs import MemorySink, MetricsRegistry, NullSink
from tests.registry_state import counter_books, event_log, gauge_books


@pytest.fixture(scope="module")
def trained_system():
    """A calibrated + trained system on the test house (module-scoped:
    training the SVM takes a second or two)."""
    plan = make_test_house()
    system = OccupancyDetectionSystem(plan, SystemConfig(seed=7))
    system.calibrate(duration_s=700.0)
    system.train()
    return system


class TestLifecycleGuards:
    def test_requires_beacons(self):
        from repro.building.floorplan import FloorPlan, Room

        bare = FloorPlan([Room("a", 0, 0, 1, 1)])
        with pytest.raises(ValueError):
            OccupancyDetectionSystem(bare)

    def test_run_without_occupants_rejected(self, trained_system):
        with pytest.raises(RuntimeError):
            trained_system.run(10.0)

    def test_run_without_training_rejected(self):
        plan = make_test_house()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=1))
        system.add_occupant(
            Occupant("bob", StaticPosition(Point(3.0, 2.5)))
        )
        with pytest.raises(RuntimeError):
            system.run(10.0)

    def test_duplicate_occupant_rejected(self, trained_system):
        name = "duplicate-test"
        trained_system.add_occupant(
            Occupant(name, StaticPosition(Point(3.0, 2.5)))
        )
        with pytest.raises(ValueError):
            trained_system.add_occupant(
                Occupant(name, StaticPosition(Point(1.0, 1.0)))
            )


class TestStaticDetection:
    def test_static_occupant_detected_in_right_room(self):
        plan = make_test_house()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=3))
        system.calibrate(duration_s=700.0)
        system.train()
        # Stand in the middle of the living room.
        system.add_occupant(Occupant("alice", StaticPosition(Point(3.0, 2.5))))
        run = system.run(120.0)
        assert run.accuracy > 0.8
        assert run.confusion is not None

    def test_energy_metered_per_occupant(self):
        plan = make_test_house()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=3))
        system.calibrate(duration_s=700.0)
        system.train()
        system.add_occupant(Occupant("alice", StaticPosition(Point(3.0, 2.5))))
        run = system.run(60.0)
        breakdown = run.energy["alice"]
        assert breakdown.total_j > 0.0
        assert "baseline" in breakdown.components_j
        assert "ble_scan" in breakdown.components_j

    def test_delivery_stats_present(self):
        plan = make_test_house()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=3))
        system.calibrate(duration_s=700.0)
        system.train()
        system.add_occupant(Occupant("alice", StaticPosition(Point(3.0, 2.5))))
        run = system.run(60.0)
        assert run.delivery["alice"].attempts > 0

    def test_predictions_recorded(self):
        plan = make_test_house()
        system = OccupancyDetectionSystem(plan, SystemConfig(seed=3))
        system.calibrate(duration_s=700.0)
        system.train()
        system.add_occupant(Occupant("alice", StaticPosition(Point(3.0, 2.5))))
        run = system.run(60.0)
        assert len(run.predictions["alice"]) == 30  # 60 s / 2 s cycles


class TestCycleEnergy:
    """``PhoneRuntime.charge_cycle``, which both fleet drives call."""

    def runtime(self, **config):
        system = OccupancyDetectionSystem(make_test_house(), SystemConfig(**config))
        system.add_occupant(Occupant("ann", StaticPosition(Point(3.0, 2.5))))
        return system._runtimes["ann"]

    def test_sensing_cycle_charges_the_profile(self):
        rt = self.runtime(uplink="wifi")
        rt.charge_cycle(2.0, 1.5, sensing=True)
        assert rt.meter.duration_s == 2.0
        assert rt.meter.breakdown().components_j == {
            "baseline": rt.energy.baseline_w * 2.0,
            "ble_scan": rt.energy.ble_scan_w * 1.5,
            "uplink_idle": rt.uplink.IDLE_POWER_W * 2.0,
        }

    def test_suppressed_gated_cycle_charges_baseline_and_accelerometer(self):
        rt = self.runtime(accel_gating=True)
        rt.charge_cycle(2.0, 2.0, sensing=False)
        assert rt.meter.breakdown().components_j == {
            "baseline": rt.energy.baseline_w * 2.0,
            "accelerometer": rt.energy.accelerometer_w * 2.0,
        }

    def fleet(self, recording):
        """Runtimes of mixed handsets, every other one gated, whose
        registry already holds their series."""
        registry = MetricsRegistry(sink=MemorySink() if recording else NullSink())
        system = OccupancyDetectionSystem(
            make_test_house(), SystemConfig(uplink="wifi"), registry=registry
        )
        for i, device in enumerate(["s3_mini", "nexus_5", "iphone_5s", "s3_mini"]):
            system.add_occupant(
                Occupant(f"dev-{i:04d}", StaticPosition(Point(3.0, 2.5)), device=device)
            )
        runtimes = list(system._runtimes.values())
        for rt in runtimes[1::2]:
            rt.gate = AccelerometerGate(lambda t: True)
        for rt in runtimes:
            rt.charge_cycle(2.0, 1.5, sensing=True)
        return registry, runtimes

    @pytest.mark.parametrize("recording", [False, True])
    @pytest.mark.parametrize("sensing", [True, False])
    def test_fleet_form_equals_one_phone_cycles_in_order(self, recording, sensing):
        one, one_runtimes = self.fleet(recording)
        many, many_runtimes = self.fleet(recording)
        for rt in one_runtimes:
            rt.charge_cycle(2.0, 1.5, sensing)
        charge_cycles(many_runtimes, 2.0, 1.5, sensing)
        for a, b in zip(one_runtimes, many_runtimes):
            assert repr(b.meter.breakdown()) == repr(a.meter.breakdown())
            assert repr(b.meter.battery.remaining_j) == repr(a.meter.battery.remaining_j)
        books = ("energy.joules", "energy.battery_soc")
        assert counter_books(many, books[:1]) == counter_books(one, books[:1])
        assert gauge_books(many, books[1:]) == gauge_books(one, books[1:])
        assert event_log(many, books) == event_log(one, books)
        assert "accelerometer" in many_runtimes[1].meter.breakdown().components_j
        assert "accelerometer" not in many_runtimes[0].meter.breakdown().components_j

    def test_fleet_form_checks_its_windows_before_any_charge(self):
        registry, runtimes = self.fleet(recording=True)
        before = [repr(rt.meter.breakdown()) for rt in runtimes]
        logged = len(registry.events)
        with pytest.raises(ValueError, match="duration must be >= 0"):
            charge_cycles(runtimes, -2.0, 1.5, sensing=True)
        with pytest.raises(ValueError, match="duration must be >= 0"):
            charge_cycles(runtimes, 2.0, -1.5, sensing=True)
        assert [repr(rt.meter.breakdown()) for rt in runtimes] == before
        assert len(registry.events) == logged
        # A phone that does not sense never listens, so its window is
        # not read.
        charge_cycles(runtimes, 2.0, -1.5, sensing=False)
        for rt in runtimes:
            components = rt.meter.breakdown().components_j
            assert components["ble_scan"] == rt.energy.ble_scan_w * 1.5


class TestConfigurations:
    @pytest.mark.parametrize("classifier", ["proximity", "knn", "naive_bayes"])
    def test_alternative_classifiers_work(self, classifier):
        plan = make_test_house()
        system = OccupancyDetectionSystem(
            plan, SystemConfig(seed=5, classifier=classifier)
        )
        system.calibrate(duration_s=500.0)
        system.train()
        system.add_occupant(Occupant("a", StaticPosition(Point(3.0, 2.5))))
        run = system.run(40.0)
        assert run.accuracy >= 0.5

    def test_wifi_uplink_costs_more_than_bluetooth(self):
        results = {}
        for uplink in ("wifi", "bluetooth"):
            plan = make_test_house()
            system = OccupancyDetectionSystem(
                plan, SystemConfig(seed=5, uplink=uplink)
            )
            system.calibrate(duration_s=500.0)
            system.train()
            system.add_occupant(Occupant("a", StaticPosition(Point(3.0, 2.5))))
            run = system.run(120.0)
            results[uplink] = run.energy["a"].average_power_w
        assert results["wifi"] > results["bluetooth"]

    def test_accel_gating_saves_energy_for_static_occupant(self):
        powers = {}
        for gating in (False, True):
            plan = make_test_house()
            system = OccupancyDetectionSystem(
                plan, SystemConfig(seed=5, accel_gating=gating)
            )
            system.calibrate(duration_s=500.0)
            system.train()
            system.add_occupant(Occupant("a", StaticPosition(Point(3.0, 2.5))))
            run = system.run(120.0)
            powers[gating] = run.energy["a"].average_power_w
        assert powers[True] < powers[False]

    def test_ios_platform_runs(self):
        plan = make_test_house()
        system = OccupancyDetectionSystem(
            plan, SystemConfig(seed=5, platform="ios")
        )
        system.calibrate(duration_s=500.0)
        system.train()
        system.add_occupant(Occupant("a", StaticPosition(Point(3.0, 2.5))))
        run = system.run(40.0)
        assert run.accuracy > 0.5


class TestBatteryLifeProjection:
    def test_battery_life_in_paper_band(self):
        """~10 h on the S3 Mini battery (paper Section VII)."""
        plan = make_test_house()
        system = OccupancyDetectionSystem(
            plan, SystemConfig(seed=5, uplink="wifi")
        )
        system.calibrate(duration_s=500.0)
        system.train()
        system.add_occupant(Occupant("a", StaticPosition(Point(3.0, 2.5))))
        run = system.run(300.0)
        life = run.battery_life_hours("a", battery_wh=5.7)
        assert 8.0 < life < 13.0
