"""Tests for the air interface."""

import numpy as np
import pytest

from repro.ble.air import AirInterface
from repro.building.geometry import Point
from repro.building.mobility import (
    MobilityModel,
    StaticPosition,
    WaypointPath,
)
from repro.building.presets import single_room, two_room_corridor
from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES

IDEAL = DEVICE_PROFILES["ideal"]


def quiet_air(plan):
    channel = ChannelModel(
        shadowing_sigma_db=0.0, fading=None, collision_loss_prob=0.0
    )
    return AirInterface(plan, channel)


class TestObserve:
    def test_sees_all_advertisements_on_ideal_link(self):
        air = quiet_air(single_room())
        reception = air.observe(
            StaticPosition(Point(1.5, 4.0)), IDEAL, 0.0, 2.0, np.random.default_rng(0)
        )
        # 100 ms interval over 2 s: ~20 advertisements.
        assert 18 <= len(reception) <= 22

    def test_sightings_sorted_by_time(self):
        air = quiet_air(two_room_corridor())
        reception = air.observe(
            StaticPosition(Point(6.0, 1.5)), IDEAL, 0.0, 5.0, np.random.default_rng(0)
        )
        times = reception.times.tolist()
        assert times == sorted(times)

    def test_sightings_carry_packet_identity(self):
        plan = single_room()
        air = quiet_air(plan)
        reception = air.observe(
            StaticPosition(Point(1.5, 4.0)), IDEAL, 0.0, 1.0, np.random.default_rng(0)
        )
        sightings = reception.sightings()
        assert len(sightings) == len(reception)
        assert all(s.packet == plan.beacons[0].packet for s in sightings)

    def test_true_distance_recorded(self):
        plan = single_room()
        air = quiet_air(plan)
        beacon_pos = plan.beacons[0].position
        rx = Point(beacon_pos.x + 3.0, beacon_pos.y)
        reception = air.observe(
            StaticPosition(rx), IDEAL, 0.0, 1.0, np.random.default_rng(0)
        )
        assert len(reception) > 0
        assert all(d == pytest.approx(3.0) for d in reception.true_distance_m)

    def test_moving_receiver_changes_distance(self):
        plan = single_room()
        air = quiet_air(plan)
        beacon_pos = plan.beacons[0].position

        class Walk(MobilityModel):
            def position_at(self, t):
                return Point(beacon_pos.x + 1.0 + t, beacon_pos.y)

        reception = air.observe(Walk(), IDEAL, 0.0, 4.0, np.random.default_rng(0))
        distances = reception.true_distance_m
        assert distances[0] < distances[-1]

    def test_wall_oracle_installed_from_plan(self):
        plan = two_room_corridor()
        air = AirInterface(plan)
        assert air.channel.wall_oracle is not None

    def test_both_beacons_visible_in_corridor(self):
        air = quiet_air(two_room_corridor())
        reception = air.observe(
            StaticPosition(Point(6.0, 1.5)), IDEAL, 0.0, 2.0, np.random.default_rng(0)
        )
        assert {s.beacon_id for s in reception.sightings()} == {"1-1", "1-2"}

    def test_closer_beacon_is_stronger(self):
        air = quiet_air(two_room_corridor())
        reception = air.observe(
            StaticPosition(Point(2.0, 1.5)), IDEAL, 0.0, 2.0, np.random.default_rng(0)
        )
        by_beacon = {}
        for s in reception.sightings():
            by_beacon.setdefault(s.beacon_id, []).append(s.rssi)
        assert np.mean(by_beacon["1-1"]) > np.mean(by_beacon["1-2"])


class TestWindowSchedule:
    def test_schedule_is_kept_for_the_same_window(self):
        air = AirInterface(two_room_corridor())
        window = air.schedule(0.0, 2.0)
        assert air.schedule(0.0, 2.0) is window
        assert air.schedule(2.0, 4.0) is not window
        assert [k for _, _, k in window.runs] == [0, 1]
        assert window.tx_ids == [
            air.advertisers[k].placement.beacon_id for k in window.advertiser
        ]
        assert list(window.times[window.order]) == sorted(window.times)

    def test_a_shared_window_observes_like_a_fresh_one(self):
        """A phone scanning a window another phone scanned first sees
        what it would see on a fresh air interface."""
        plan = two_room_corridor()

        walk = WaypointPath([Point(3.0, 1.0), Point(4.0, 1.0)], speed_mps=0.5)

        shared = AirInterface(plan, ChannelModel(seed=4))
        parked = StaticPosition(Point(9.0, 2.0))
        shared.observe(parked, IDEAL, 0.0, 2.0, np.random.default_rng(1))
        after = shared.observe(walk, IDEAL, 0.0, 2.0, np.random.default_rng(2))
        fresh = AirInterface(plan, ChannelModel(seed=4))
        again = fresh.observe(walk, IDEAL, 0.0, 2.0, np.random.default_rng(2))
        assert after.sightings() == again.sightings()
