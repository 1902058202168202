"""Tests for the energy model: battery, meter, profiles, gating."""

import pytest

from repro.energy.battery import Battery
from repro.energy.gating import AccelerometerGate
from repro.energy.meter import EnergyMeter, charge_meters
from repro.energy.profiles import PHONE_ENERGY_PROFILES, PhoneEnergyProfile
from repro.obs import MemorySink, MetricsRegistry, NullSink
from tests.registry_state import counter_books, event_log, gauge_books


class TestBattery:
    def test_full_by_default(self):
        battery = Battery(5.7)
        assert battery.soc == 1.0
        assert battery.remaining_j == pytest.approx(5.7 * 3600.0)

    def test_partial_initial_soc(self):
        assert Battery(5.7, initial_soc=0.5).soc == 0.5

    def test_drain_reduces_charge(self):
        battery = Battery(1.0)
        battery.drain(1800.0)
        assert battery.soc == pytest.approx(0.5)

    def test_drain_clamps_at_empty(self):
        battery = Battery(1.0)
        drained = battery.drain(1e9)
        assert drained == pytest.approx(3600.0)
        assert battery.is_empty
        assert battery.soc == 0.0

    def test_drain_rejects_negative(self):
        with pytest.raises(ValueError):
            Battery(1.0).drain(-1.0)

    def test_lifetime_projection(self):
        # 5.7 Wh at 0.57 W -> 10 h: the paper's headline battery life.
        assert Battery(5.7).lifetime_hours(0.57) == pytest.approx(10.0)

    def test_lifetime_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            Battery(1.0).lifetime_hours(0.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Battery(0.0)

    def test_rejects_bad_soc(self):
        with pytest.raises(ValueError):
            Battery(1.0, initial_soc=1.5)


class TestEnergyMeter:
    def test_power_charge(self):
        meter = EnergyMeter()
        meter.charge_power("cpu", 0.5, 10.0)
        assert meter.total_j == pytest.approx(5.0)

    def test_components_tracked_separately(self):
        meter = EnergyMeter()
        meter.charge_power("cpu", 1.0, 2.0)
        meter.charge_energy("radio", 3.0)
        breakdown = meter.breakdown()
        assert breakdown.components_j == {"cpu": 2.0, "radio": 3.0}

    def test_average_power(self):
        meter = EnergyMeter()
        meter.advance(10.0)
        meter.charge_energy("cpu", 5.0)
        assert meter.breakdown().average_power_w == pytest.approx(0.5)

    def test_average_power_zero_duration(self):
        meter = EnergyMeter()
        meter.charge_energy("cpu", 5.0)
        assert meter.breakdown().average_power_w == 0.0

    def test_fraction(self):
        meter = EnergyMeter()
        meter.charge_energy("a", 3.0)
        meter.charge_energy("b", 1.0)
        assert meter.breakdown().fraction("a") == pytest.approx(0.75)
        assert meter.breakdown().fraction("zzz") == 0.0

    def test_battery_drained_in_step(self):
        battery = Battery(1.0)
        meter = EnergyMeter(battery)
        meter.charge_energy("cpu", 360.0)
        assert battery.soc == pytest.approx(0.9)

    def test_reset(self):
        meter = EnergyMeter()
        meter.charge_energy("cpu", 1.0)
        meter.advance(5.0)
        meter.reset()
        assert meter.total_j == 0.0
        assert meter.duration_s == 0.0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            EnergyMeter().charge_power("x", -1.0, 1.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            EnergyMeter().charge_energy("x", -1.0)

    def test_breakdown_to_text(self):
        meter = EnergyMeter()
        meter.charge_energy("radio", 2.0)
        assert "radio" in meter.breakdown().to_text()


def mixed_meters(registry):
    """Meters of the mixed handsets, one without a battery, and an
    unlabelled one whose tiny battery empties mid-charge."""
    meters = [
        EnergyMeter(
            Battery(PHONE_ENERGY_PROFILES[name].battery_wh),
            registry=registry,
            device=f"dev-{i:04d}",
        )
        for i, name in enumerate(["s3_mini", "nexus_5", "iphone_5s", "s3_mini"])
    ]
    meters.append(EnergyMeter(registry=registry, device="no-battery"))
    meters.append(EnergyMeter(Battery(0.001), registry=registry))
    return meters


#: One period's charges per meter of :func:`mixed_meters`: mixed
#: components, a meter with none, a repeated component and a burst
#: larger than the last meter's battery.
MIXED_CHARGES = [
    [("baseline", 0.6), ("ble_scan", 0.24), ("uplink_idle", 0.16)],
    [("baseline", 0.66), ("ble_scan", 0.2), ("uplink_idle", 0.0)],
    [],
    [("baseline", 0.6), ("accelerometer", 0.008), ("uplink_radio", 0.1)],
    [("baseline", 0.1), ("baseline", 0.2)],
    [("baseline", 0.6), ("uplink_radio", 5.0)],
]

BOOKS = ("energy.joules", "energy.battery_soc")


class TestChargeMeters:
    """``charge_meters`` against one-meter books, meter by meter, on
    twin registries that already hold the series."""

    def twins(self, recording):
        clock = {"t": 2.0}
        twins = []
        for _ in range(2):
            registry = MetricsRegistry(
                sink=MemorySink() if recording else NullSink(),
                clock=lambda: clock["t"],
            )
            meters = mixed_meters(registry)
            for meter in meters:
                meter.advance(2.0)
                meter.charge_energy("baseline", 0.3)
            twins.append((registry, meters))
        clock["t"] = 4.0
        return twins

    @staticmethod
    def assert_same_books(one, many):
        (one_registry, one_meters), (many_registry, many_meters) = one, many
        for a, b in zip(one_meters, many_meters):
            assert repr(b.breakdown()) == repr(a.breakdown())
            if a.battery is not None:
                assert repr(b.battery.remaining_j) == repr(a.battery.remaining_j)
        assert counter_books(many_registry, BOOKS[:1]) == counter_books(
            one_registry, BOOKS[:1]
        )
        assert gauge_books(many_registry, BOOKS[1:]) == gauge_books(
            one_registry, BOOKS[1:]
        )
        assert event_log(many_registry, BOOKS) == event_log(one_registry, BOOKS)

    @pytest.mark.parametrize("recording", [False, True])
    def test_fleet_books_equal_one_meter_books_in_order(self, recording):
        one, many = self.twins(recording)
        for meter, charges in zip(one[1], MIXED_CHARGES):
            meter.advance(2.0)
            for component, energy_j in charges:
                meter.charge_energy(component, energy_j)
        charge_meters(many[1], 2.0, MIXED_CHARGES)
        self.assert_same_books(one, many)
        assert many[1][-1].battery.is_empty
        if recording:
            # Each charge logs its joules, then the battery level.
            names = [e.name for e in many[0].events if e.time == 4.0]
            assert names[:2] == list(BOOKS)

    def test_a_negative_energy_books_nothing(self):
        one, many = self.twins(recording=True)
        charges = [[("baseline", 0.6)], [("baseline", -0.1)]]
        with pytest.raises(ValueError, match="energy must be >= 0"):
            charge_meters(many[1][:2], 2.0, charges)
        with pytest.raises(ValueError, match="duration must be >= 0"):
            charge_meters(many[1][:2], -2.0, [[], []])
        self.assert_same_books(one, many)

    def test_charges_of_another_length_book_nothing(self):
        one, many = self.twins(recording=False)
        with pytest.raises(ValueError, match="one entry per meter"):
            charge_meters(many[1], 2.0, MIXED_CHARGES[:-1])
        with pytest.raises(ValueError, match="one entry per meter"):
            charge_meters([], 2.0, [[("baseline", 0.6)]])
        self.assert_same_books(one, many)

    def test_meters_of_different_registries_book_to_their_own(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        meters = [
            EnergyMeter(Battery(1.0), registry=r, device="a") for r in registries
        ]
        charge_meters(meters, 2.0, [[("baseline", 0.5)], [("baseline", 0.25)]])
        assert [r.counter("energy.joules").value for r in registries] == [0.5, 0.25]
        assert [r.gauge("energy.battery_soc").value for r in registries] == [
            m.battery.soc for m in meters
        ]


class TestProfiles:
    def test_s3_mini_battery_matches_hardware(self):
        # 1500 mAh at 3.8 V.
        assert PHONE_ENERGY_PROFILES["s3_mini"].battery_wh == pytest.approx(5.7)

    def test_battery_joules(self):
        profile = PHONE_ENERGY_PROFILES["s3_mini"]
        assert profile.battery_j == pytest.approx(5.7 * 3600.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PhoneEnergyProfile(name="x", battery_wh=5.0, baseline_w=-1.0, ble_scan_w=0.1)


class TestAccelerometerGate:
    def test_senses_while_moving(self):
        gate = AccelerometerGate(lambda t: True)
        assert gate.should_sense(0.0)
        assert gate.suppression_ratio == 0.0

    def test_suppresses_after_grace(self):
        gate = AccelerometerGate(lambda t: False, grace_period_s=5.0)
        assert not gate.should_sense(100.0)
        assert gate.cycles_suppressed == 1

    def test_grace_period_keeps_sensing(self):
        moving_until = 10.0
        gate = AccelerometerGate(lambda t: t < moving_until, grace_period_s=5.0)
        assert gate.should_sense(9.0)       # moving
        assert gate.should_sense(12.0)      # within grace of t=9
        assert not gate.should_sense(20.0)  # grace expired

    def test_motion_resumption_reopens_gate(self):
        calls = {"moving": False}
        gate = AccelerometerGate(lambda t: calls["moving"], grace_period_s=1.0)
        assert not gate.should_sense(10.0)
        calls["moving"] = True
        assert gate.should_sense(11.0)

    def test_suppression_ratio(self):
        # Moving for t < 4 (cycles 0-3 allowed); with zero grace the
        # remaining 6 of 10 cycles are suppressed.
        gate = AccelerometerGate(lambda t: t < 4.0, grace_period_s=0.0)
        for t in range(10):
            gate.should_sense(float(t))
        assert gate.suppression_ratio == pytest.approx(0.6)

    def test_rejects_negative_grace(self):
        with pytest.raises(ValueError):
            AccelerometerGate(lambda t: True, grace_period_s=-1.0)
