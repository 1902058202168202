"""Tests for occupant mobility models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.building.geometry import Point
from repro.building.mobility import (
    RandomWaypoint,
    RoomSchedule,
    StaticPosition,
    WaypointPath,
)
from repro.building.presets import test_house as make_test_house


class TestStaticPosition:
    def test_position_constant(self):
        model = StaticPosition(Point(2, 3))
        assert model.position_at(0.0) == Point(2, 3)
        assert model.position_at(1e6) == Point(2, 3)

    def test_speed_is_zero(self):
        assert StaticPosition(Point(0, 0)).speed_at(5.0) == 0.0


class TestWaypointPath:
    def test_requires_waypoints(self):
        with pytest.raises(ValueError):
            WaypointPath([])

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            WaypointPath([Point(0, 0)], speed_mps=0.0)

    def test_waits_at_start_before_start_time(self):
        path = WaypointPath([Point(0, 0), Point(10, 0)], speed_mps=1.0, start_time=5.0)
        assert path.position_at(0.0) == Point(0, 0)
        assert path.position_at(4.9) == Point(0, 0)

    def test_constant_speed_interpolation(self):
        path = WaypointPath([Point(0, 0), Point(10, 0)], speed_mps=2.0)
        assert path.position_at(2.5) == Point(5, 0)

    def test_stays_at_end(self):
        path = WaypointPath([Point(0, 0), Point(10, 0)], speed_mps=2.0)
        assert path.end_time == pytest.approx(5.0)
        assert path.position_at(100.0) == Point(10, 0)

    def test_multi_leg_path(self):
        path = WaypointPath([Point(0, 0), Point(4, 0), Point(4, 3)], speed_mps=1.0)
        assert path.position_at(4.0) == Point(4, 0)
        assert path.position_at(7.0) == Point(4, 3)
        assert path.end_time == pytest.approx(7.0)

    def test_speed_estimate_close_to_nominal(self):
        path = WaypointPath([Point(0, 0), Point(100, 0)], speed_mps=1.5)
        assert path.speed_at(10.0) == pytest.approx(1.5, rel=0.05)

    def test_single_waypoint_is_static(self):
        path = WaypointPath([Point(3, 3)])
        assert path.position_at(42.0) == Point(3, 3)


class TestRandomWaypoint:
    def test_deterministic_given_seed(self):
        plan = make_test_house()
        a = RandomWaypoint(plan, seed=5)
        b = RandomWaypoint(plan, seed=5)
        for t in (0.0, 10.0, 60.0, 300.0):
            assert a.position_at(t) == b.position_at(t)

    def test_different_seeds_diverge(self):
        plan = make_test_house()
        a = RandomWaypoint(plan, seed=5)
        b = RandomWaypoint(plan, seed=6)
        positions_a = [a.position_at(t) for t in (50.0, 100.0, 200.0)]
        positions_b = [b.position_at(t) for t in (50.0, 100.0, 200.0)]
        assert positions_a != positions_b

    def test_position_query_is_pure(self):
        """Querying out of order must not change the trajectory."""
        plan = make_test_house()
        model = RandomWaypoint(plan, seed=3)
        late = model.position_at(500.0)
        model.position_at(20.0)
        assert model.position_at(500.0) == late

    def test_stays_inside_building_bounds(self):
        plan = make_test_house()
        model = RandomWaypoint(plan, seed=7)
        x_min, y_min, x_max, y_max = plan.bounds()
        for t in range(0, 600, 10):
            p = model.position_at(float(t))
            assert x_min <= p.x <= x_max
            assert y_min <= p.y <= y_max

    def test_negative_time_clamped(self):
        plan = make_test_house()
        model = RandomWaypoint(plan, seed=3)
        assert model.position_at(-5.0) == model.position_at(0.0)

    def test_invalid_speed_range_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypoint(make_test_house(), speed_range_mps=(2.0, 1.0))

    def test_invalid_pause_range_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypoint(make_test_house(), pause_range_s=(-1.0, 5.0))

    def test_start_room_honoured(self):
        plan = make_test_house()
        model = RandomWaypoint(plan, seed=3, start_room="kitchen")
        assert plan.room_at(model.position_at(0.0)) == "kitchen"


class TestRoomSchedule:
    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            RoomSchedule(make_test_house(), [])

    def test_rejects_unsorted_schedule(self):
        with pytest.raises(ValueError):
            RoomSchedule(make_test_house(), [(10.0, "living"), (5.0, "kitchen")])

    def test_first_entry_position(self):
        plan = make_test_house()
        sched = RoomSchedule(plan, [(0.0, "living"), (100.0, "kitchen")])
        assert plan.room_at(sched.position_at(0.0)) == "living"

    def test_walks_to_next_room_after_entry_time(self):
        plan = make_test_house()
        sched = RoomSchedule(plan, [(0.0, "living"), (100.0, "kitchen")], speed_mps=2.0)
        # Shortly after 100 s the occupant is between rooms or arrived.
        final = sched.position_at(150.0)
        assert plan.room_at(final) == "kitchen"

    def test_outside_entries(self):
        plan = make_test_house()
        sched = RoomSchedule(plan, [(0.0, "outside"), (50.0, "living")])
        assert sched.room_at(0.0) == "outside"

    def test_stays_at_last_entry(self):
        plan = make_test_house()
        sched = RoomSchedule(plan, [(0.0, "living")])
        assert plan.room_at(sched.position_at(1e5)) == "living"


class TestVectorisedPositions:
    """positions_at must be bit-identical to per-time position_at: the
    columnar fleet engine (repro.fleet.columnar) relies on it."""

    def test_random_waypoint_matches_scalar_exactly(self):
        plan = make_test_house()
        walk = RandomWaypoint(plan, seed=5)
        other = RandomWaypoint(plan, seed=5)
        times = [0.0, 3.7, 120.0, 1.1, 59.99, 0.05, 240.0, -2.0]
        vec = walk.positions_at(times)
        for i, t in enumerate(times):
            p = other.position_at(float(t))
            assert vec[i, 0] == p.x and vec[i, 1] == p.y

    def test_random_waypoint_vectorised_query_is_pure(self):
        plan = make_test_house()
        walk = RandomWaypoint(plan, seed=7)
        first = walk.positions_at([10.0, 20.0])
        # A far query extends the leg list; earlier answers must hold.
        walk.positions_at([500.0])
        again = walk.positions_at([10.0, 20.0])
        assert (first == again).all()

    def test_default_implementation_matches_scalar(self):
        path = WaypointPath([Point(0.0, 0.0), Point(10.0, 0.0)], speed_mps=2.0)
        times = [0.0, 1.25, 4.0, 10.0]
        vec = path.positions_at(times)
        for i, t in enumerate(times):
            p = path.position_at(t)
            assert vec[i, 0] == p.x and vec[i, 1] == p.y

    def test_empty_query(self):
        plan = make_test_house()
        walk = RandomWaypoint(plan, seed=1)
        assert walk.positions_at([]).shape == (0, 2)


# -- positions_at is position_at, bit for bit --------------------------------
#
# The scanner asks a trajectory for a listening window's positions in one
# positions_at call, so every model's array path must reproduce its scalar
# path exactly: unsorted, duplicate, negative and far-future times, and
# array queries interleaved with scalar ones (RandomWaypoint grows its legs
# lazily).  Models without an array path use the base per-time loop.

_GRID = st.integers(-4, 12).map(float)
_POINTS = st.builds(Point, _GRID, _GRID) | st.builds(
    Point, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)
)


def _bits(xy):
    return np.asarray(xy, dtype=float).tobytes()


def _assert_bitwise(model, oracle, times):
    vec = model.positions_at(np.asarray(times, dtype=float))
    assert vec.shape == (len(times), 2)
    for i, t in enumerate(times):
        assert _bits(vec[i]) == _bits(oracle.position_at(float(t)).as_tuple()), t


def _times(special):
    """Unsorted query times, often repeated or exactly on ``special``."""
    return st.lists(
        st.one_of(st.floats(-50.0, 400.0), st.sampled_from(special)),
        max_size=25,
    )


@settings(max_examples=60, deadline=None)
@given(point=_POINTS, data=st.data())
def test_static_position_positions_at_is_position_at(point, data):
    model = StaticPosition(point)
    _assert_bitwise(model, model, data.draw(_times([0.0, -1.0, 1e9])))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    queries=st.lists(
        st.tuples(st.booleans(), _times([0.0, -0.0, -3.0, 1500.0])),
        min_size=1,
        max_size=5,
    ),
)
def test_random_waypoint_positions_at_is_position_at(seed, queries):
    plan = make_test_house()
    model = RandomWaypoint(plan, seed=seed)
    oracle = RandomWaypoint(plan, seed=seed)
    for scalar, times in queries:
        if scalar:
            # A scalar query first: it may grow the legs on its own.
            for t in times:
                assert _bits(model.position_at(t).as_tuple()) == _bits(
                    oracle.position_at(t).as_tuple()
                )
        _assert_bitwise(model, oracle, times)


def test_random_waypoint_leg_columns_follow_the_legs():
    """positions_at answers from float columns of the generated legs;
    a query inside the horizon converts nothing."""
    walk = RandomWaypoint(make_test_house(), seed=3)
    walk.positions_at([5000.0])
    columns, filled = walk._columns, walk._columns_filled
    walk.positions_at([10.0, 4000.0])
    assert walk._columns is columns and walk._columns_filled == filled
    n = len(walk._legs)
    assert filled == n
    expected = np.asarray(
        [(t0, t1, a.x, a.y, b.x, b.y) for t0, t1, a, b in walk._legs]
    ).T
    assert np.array_equal(walk._columns[:, :n], expected)
