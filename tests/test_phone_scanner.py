"""Tests for the platform-faithful scanner semantics (paper Section V)."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.air import AirInterface, Reception
from repro.ble.scanner_params import ScanSettings
from repro.building.floorplan import OUTSIDE
from repro.building.geometry import Point
from repro.building.mobility import RandomWaypoint, RoomSchedule, StaticPosition
from repro.building.presets import single_room, two_room_corridor
from repro.building.presets import test_house as make_test_house
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink, NullSink
from repro.phone.scanner import (
    AndroidScanner,
    IosScanner,
    _samples_by_beacon,
    count_cycles,
    surface_android,
    surfaced_mean,
    surfaced_means,
)
from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES
from tests.registry_state import counter_books, event_log
from tests.surfacing_oracle import android_surface, reference_cycle


def quiet_air(plan):
    return AirInterface(
        plan,
        ChannelModel(shadowing_sigma_db=0.0, fading=None, collision_loss_prob=0.0),
    )


def fixed(point):
    return StaticPosition(point)


class TestAndroidSemantics:
    def test_one_sample_per_beacon_per_cycle(self):
        air = quiet_air(single_room())
        scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(0))
        cycle = scanner.scan_cycle(fixed(Point(2.0, 4.0)), 0.0)
        assert cycle.surfaced_count == 1
        assert len(cycle.samples["1-1"]) == 1

    def test_multiple_beacons_one_sample_each(self):
        air = quiet_air(two_room_corridor())
        scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(0))
        cycle = scanner.scan_cycle(fixed(Point(6.0, 1.5)), 0.0)
        assert cycle.beacon_ids == ["1-1", "1-2"]
        assert cycle.surfaced_count == 2

    def test_received_count_exceeds_surfaced(self):
        """The radio hears every advertisement; the API hides most."""
        air = quiet_air(single_room())
        scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(0))
        cycle = scanner.scan_cycle(fixed(Point(2.0, 4.0)), 0.0)
        assert cycle.received_count > cycle.surfaced_count

    def test_out_of_order_sightings_dedup_per_cycle(self):
        """Regression: dedup keyed on the *last-seen* cycle re-surfaced
        duplicates when sightings arrived out of time order."""
        air = quiet_air(single_room())
        scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(0))
        # Cycle 0, then cycle 1, then cycle 0 again (out of order): the
        # third row duplicates cycle 0 and must NOT surface.
        reception = Reception(
            times=np.array([0.1, 2.1, 0.5]),
            advertiser=np.array([0, 0, 0]),
            rssi=np.array([-50.0, -51.0, -52.0]),
            true_distance_m=np.ones(3),
            beacon_ids=["1-1"],
            packets=[None],
            payloads=[b""],
        )
        samples, _ = _samples_by_beacon(reception, scanner._surface(reception, 0.0))
        assert samples == {"1-1": [-50.0, -51.0]}

    def test_surfaced_sample_is_first_reception(self):
        air = quiet_air(single_room())
        scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(1))
        pos = fixed(Point(2.0, 4.0))
        cycle = scanner.scan_cycle(pos, 0.0)
        reception = air.observe(
            pos, DEVICE_PROFILES["ideal"], 0.0, 2.0, np.random.default_rng(1)
        )
        # Regenerate with the same rng seed: first sighting's RSSI must
        # match the surfaced sample.
        assert cycle.samples["1-1"][0] == pytest.approx(reception.rssi[0])


class TestIosSemantics:
    def test_all_advertisements_surfaced(self):
        air = quiet_air(single_room())
        scanner = IosScanner(air, device="ideal", rng=np.random.default_rng(0))
        cycle = scanner.scan_cycle(fixed(Point(2.0, 4.0)), 0.0)
        assert cycle.surfaced_count == cycle.received_count
        assert cycle.surfaced_count >= 15

    def test_paper_example_ratio(self):
        """2 s scans: Android gets 1 sample/cycle, iOS ~20 at 100 ms."""
        air = quiet_air(single_room())
        android = AndroidScanner(air, device="ideal", rng=np.random.default_rng(0))
        ios = IosScanner(air, device="ideal", rng=np.random.default_rng(0))
        pos = fixed(Point(2.0, 4.0))
        a = android.scan_cycle(pos, 0.0).surfaced_count
        i = ios.scan_cycle(pos, 0.0).surfaced_count
        assert a == 1
        assert i >= 15 * a


class TestScanCycle:
    def test_mean_rssi(self):
        air = quiet_air(single_room())
        scanner = IosScanner(air, device="ideal", rng=np.random.default_rng(0))
        cycle = scanner.scan_cycle(fixed(Point(2.0, 4.0)), 0.0)
        values = cycle.samples["1-1"]
        assert cycle.mean_rssi("1-1") == pytest.approx(float(np.mean(values)))

    def test_mean_rssi_unknown_beacon_raises(self):
        air = quiet_air(single_room())
        scanner = AndroidScanner(air, device="ideal", rng=np.random.default_rng(0))
        cycle = scanner.scan_cycle(fixed(Point(2.0, 4.0)), 0.0)
        with pytest.raises(KeyError):
            cycle.mean_rssi("9-9")

    def test_cycle_window(self):
        air = quiet_air(single_room())
        scanner = AndroidScanner(
            air, device="ideal", settings=ScanSettings(3.0),
            rng=np.random.default_rng(0),
        )
        cycle = scanner.scan_cycle(fixed(Point(2.0, 4.0)), 6.0)
        assert cycle.t_start == 6.0
        assert cycle.t_end == 9.0

    def test_duty_cycle_limits_receptions(self):
        air = quiet_air(single_room())
        full = IosScanner(
            air, device="ideal", settings=ScanSettings(2.0, duty_cycle=1.0),
            rng=np.random.default_rng(0),
        )
        half = IosScanner(
            air, device="ideal", settings=ScanSettings(2.0, duty_cycle=0.5),
            rng=np.random.default_rng(0),
        )
        pos = fixed(Point(2.0, 4.0))
        assert half.scan_cycle(pos, 0.0).received_count < full.scan_cycle(
            pos, 0.0
        ).received_count


class TestCycleCounters:
    """``Scanner.count_cycle``, which both fleet drives call."""

    def scan(self, registry, decodable=True):
        air = quiet_air(two_room_corridor())
        if not decodable:
            air.decoded[0] = None
        scanner = AndroidScanner(
            air, device="ideal", rng=np.random.default_rng(0), registry=registry
        )
        return scanner.scan_cycle(fixed(Point(6.0, 1.5)), 0.0)

    def test_counters_book_the_cycle(self):
        registry = MetricsRegistry()
        cycle = self.scan(registry)
        value = {
            name: registry.counter(f"phone.{name}").value
            for name in (
                "scan_cycles",
                "adverts_received",
                "samples_surfaced",
                "samples_filtered",
                "decode_drops",
            )
        }
        assert value == {
            "scan_cycles": 1,
            "adverts_received": cycle.received_count,
            "samples_surfaced": cycle.surfaced_count,
            "samples_filtered": cycle.received_count - cycle.surfaced_count,
            "decode_drops": 0,
        }

    def test_undecodable_beacon_is_dropped_and_counted(self):
        """A beacon whose payload the decode table holds no packet for
        surfaces a sample the app never sees."""
        registry = MetricsRegistry()
        cycle = self.scan(registry, decodable=False)
        assert cycle.beacon_ids == ["1-2"]
        assert list(cycle.packets) == ["1-2"]
        assert registry.counter("phone.decode_drops").value == 1


PHONE_COUNTERS = tuple(
    f"phone.{name}"
    for name in (
        "scan_cycles",
        "adverts_received",
        "samples_surfaced",
        "samples_filtered",
        "decode_drops",
    )
)


class TestCountCycles:
    """``count_cycles`` against one-scanner counts in order, on twin
    registries that already hold the series."""

    #: (received, raw, surfaced) per scanner: decode drops on some.
    COUNTS = [(40, 5, 5), (0, 0, 0), (300, 30, 27), (41, 5, 4), (12, 2, 2)]

    def twins(self, recording):
        clock = {"t": 2.0}
        twins = []
        air = quiet_air(two_room_corridor())
        for _ in range(2):
            registry = MetricsRegistry(
                sink=MemorySink() if recording else NullSink(),
                clock=lambda: clock["t"],
            )
            scanners = [
                cls(air, device=device, registry=registry, label=label)
                for cls, device, label in [
                    (AndroidScanner, "s3_mini", "dev-0000"),
                    (AndroidScanner, "nexus_5", "dev-0001"),
                    (IosScanner, "iphone_5s", "dev-0002"),
                    (AndroidScanner, "s3_mini", ""),
                    (AndroidScanner, "s3_mini", "dev-0000"),
                ]
            ]
            for scanner in scanners:
                scanner.count_cycle(10, 3, 2)
            twins.append((registry, scanners))
        clock["t"] = 4.0
        return twins

    @pytest.mark.parametrize("recording", [False, True])
    def test_fleet_counts_equal_one_scanner_counts_in_order(self, recording):
        (one, one_scanners), (many, many_scanners) = self.twins(recording)
        for scanner, counts in zip(one_scanners, self.COUNTS):
            scanner.count_cycle(*counts)
        count_cycles(many_scanners, *(list(column) for column in zip(*self.COUNTS)))
        assert counter_books(many, PHONE_COUNTERS) == counter_books(one, PHONE_COUNTERS)
        assert event_log(many, PHONE_COUNTERS) == event_log(one, PHONE_COUNTERS)
        assert many.counter("phone.decode_drops").value == 5 + 4

    @pytest.mark.parametrize(
        "bad",
        [(3, 5, 5), (5, 3, 4), (5, 3, -1)],
        ids=["raw-above-received", "surfaced-above-raw", "negative-surfaced"],
    )
    def test_a_bad_count_books_nothing(self, bad):
        """A row that would book a negative count raises before any
        scanner is counted, in the fleet form and its one-scanner case."""
        (before, _), (registry, scanners) = self.twins(recording=False)
        counts = list(self.COUNTS)
        counts[2] = bad
        with pytest.raises(ValueError, match="received >= raw >= surfaced >= 0"):
            count_cycles(scanners, *(list(column) for column in zip(*counts)))
        with pytest.raises(ValueError, match="received >= raw >= surfaced >= 0"):
            scanners[2].count_cycle(*bad)
        assert counter_books(registry, PHONE_COUNTERS) == counter_books(
            before, PHONE_COUNTERS
        )

    def test_columns_of_another_length_book_nothing(self):
        (before, _), (registry, scanners) = self.twins(recording=False)
        columns = [list(column) for column in zip(*self.COUNTS)]
        columns[1] = columns[1][:-1]
        with pytest.raises(ValueError, match="one entry per scanner"):
            count_cycles(scanners, *columns)
        assert counter_books(registry, PHONE_COUNTERS) == counter_books(
            before, PHONE_COUNTERS
        )

    def test_scanners_of_different_registries_count_to_their_own(self):
        air = quiet_air(single_room())
        registries = [MetricsRegistry(), MetricsRegistry()]
        scanners = [AndroidScanner(air, registry=r, label="a") for r in registries]
        count_cycles(scanners, [4, 6], [2, 3], [2, 1])
        assert [r.counter("phone.adverts_received").value for r in registries] == [4, 6]
        assert [r.counter("phone.decode_drops").value for r in registries] == [0, 2]


class TestScannerConstruction:
    def test_device_name_resolved(self):
        air = quiet_air(single_room())
        scanner = AndroidScanner(air, device="s3_mini")
        assert scanner.device.name == "s3_mini"

    def test_bad_device_type_rejected(self):
        air = quiet_air(single_room())
        with pytest.raises(TypeError):
            AndroidScanner(air, device=42)

    def test_unknown_device_name_raises(self):
        air = quiet_air(single_room())
        with pytest.raises(KeyError):
            AndroidScanner(air, device="pixel_99")


def _trajectory(kind, plan, seed):
    if kind == "walk":
        return RandomWaypoint(plan, seed=seed)
    rooms = plan.room_names
    # In, out past the footprint (most beacons lost), and back in.
    return RoomSchedule(
        plan, [(0.0, rooms[seed % len(rooms)]), (6.0, OUTSIDE), (21.0, rooms[0])]
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    period=st.sampled_from([2.0, 5.0, 10.0]),
    android=st.booleans(),
    device=st.sampled_from(["s3_mini", "nexus_5", "ideal"]),
    kind=st.sampled_from(["walk", "schedule"]),
)
def test_scan_cycle_matches_per_sighting_oracle(seed, period, android, device, kind):
    """The column surfacing equals the per-sighting rules of
    ``tests/surfacing_oracle.py`` on the same window: samples (values,
    per-beacon order and beacon order), packets, received and surfaced
    counts, and each beacon's mean."""
    plan = make_test_house()
    air = AirInterface(plan, ChannelModel(seed=seed % 1009))
    scanner_cls = AndroidScanner if android else IosScanner
    scanner = scanner_cls(
        air,
        device=device,
        settings=ScanSettings(period),
        rng=np.random.default_rng(seed),
    )
    trajectory = _trajectory(kind, plan, seed)
    t = 0.0
    for _ in range(4):
        state = scanner.rng.bit_generator.state
        cycle = scanner.scan_cycle(trajectory, t)
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        reception = air.observe(
            trajectory, scanner.device, t, t + scanner.settings.listen_window_s, rng
        )
        expected = reference_cycle(reception.sightings(), t, android)
        assert cycle.samples == expected["samples"]
        assert list(cycle.samples) == list(expected["samples"])
        assert cycle.packets == expected["packets"]
        assert list(cycle.packets) == list(expected["packets"])
        assert cycle.received_count == expected["received_count"]
        assert cycle.surfaced_count == expected["surfaced_count"]
        for beacon_id, mean in expected["means"].items():
            assert np.float64(cycle.mean_rssi(beacon_id)).tobytes() == (
                np.float64(mean).tobytes()
            )
        t += period


Row = namedtuple("Row", "time beacon_id rssi")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    period=st.sampled_from([2.0, 5.0, 10.0]),
    cycle=st.integers(0, 5),
    devices=st.integers(1, 4),
    time_order=st.booleans(),
)
def test_surface_android_matches_per_sighting_oracle(
    seed, period, cycle, devices, time_order
):
    """Row by row, the shared surfacing of a ``(devices, samples)``
    received mask equals the per-sighting rule of
    ``tests/surfacing_oracle.py``, with the samples in time order (the
    scanner's reception) or in the schedule's beacon-major order (the
    columnar drive).  Both drives call the function, so their equality
    alone could not catch a fault in it."""
    air = AirInterface(make_test_house())
    t_start = cycle * period
    window = air.schedule(t_start, t_start + period)
    order = window.order if time_order else np.arange(len(window.times))
    times, advertiser = window.times[order], window.advertiser[order]
    rng = np.random.default_rng(seed)
    received = rng.random((devices, len(times))) < rng.uniform(0.05, 1.0)
    beacon_ids = [adv.placement.beacon_id for adv in air.advertisers]
    rows = [
        Row(time, beacon_ids[k], float(i))
        for i, (time, k) in enumerate(zip(times.tolist(), advertiser.tolist()))
    ]
    picked = surface_android(received, times, advertiser, t_start)
    for received_row, picked_row in zip(received, picked):
        expected = android_surface(
            [rows[i] for i in np.flatnonzero(received_row)], t_start
        )
        surfaced = {}
        for i in np.flatnonzero(picked_row):
            surfaced.setdefault(rows[i].beacon_id, []).append(rows[i].rssi)
        assert surfaced == expected
        assert list(surfaced) == list(expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    period=st.sampled_from([2.0, 5.0, 10.0]),
    cycle=st.integers(0, 5),
    devices=st.integers(1, 4),
    android=st.booleans(),
    quantised=st.booleans(),
)
def test_surfaced_means_match_surfaced_mean_per_cell(
    seed, period, cycle, devices, android, quantised
):
    """Cell by cell, the block gather of the cycle means equals
    ``surfaced_mean`` of the cell's surfaced samples, on Android masks
    (one sample per cell at the 2 s period) and iOS masks (every
    received sample)."""
    air = AirInterface(make_test_house())
    t_start = cycle * period
    window = air.schedule(t_start, t_start + period)
    rng = np.random.default_rng(seed)
    n = len(window.times)
    received = rng.random((devices, n)) < rng.uniform(0.05, 1.0)
    rssi = rng.normal(-75.0, 8.0, size=(devices, n))
    if quantised:
        rssi = np.rint(rssi)
    picked = (
        surface_android(received, window.times, window.advertiser, t_start)
        if android
        else received
    )
    count, mean = surfaced_means(rssi, picked, [start for start, _, _ in window.runs])
    assert count.shape == mean.shape == (devices, len(window.runs))
    for d in range(devices):
        for r, (start, end, _) in enumerate(window.runs):
            values = rssi[d, start:end][picked[d, start:end]]
            assert count[d, r] == len(values)
            expected = surfaced_mean(values) if len(values) else 0.0
            assert np.float64(mean[d, r]).tobytes() == np.float64(expected).tobytes()
    if android and period == 2.0:
        assert count.max(initial=0) <= 1
