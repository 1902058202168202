"""Tests for rooms, walls, beacon placement and ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.building import presets
from repro.building.floorplan import (
    OUTSIDE,
    BeaconPlacement,
    FloorPlan,
    Room,
    Wall,
)
from repro.building.geometry import Point, Segment
from repro.building.presets import make_beacon
from repro.radio.materials import WALL_MATERIALS, wall_loss_db


class TestRoom:
    def test_contains_interior(self):
        room = Room("a", 0, 0, 4, 3)
        assert room.contains(Point(2, 1))

    def test_contains_boundary(self):
        room = Room("a", 0, 0, 4, 3)
        assert room.contains(Point(0, 0))
        assert room.contains(Point(4, 3))

    def test_excludes_exterior(self):
        room = Room("a", 0, 0, 4, 3)
        assert not room.contains(Point(5, 1))

    def test_centre_and_area(self):
        room = Room("a", 0, 0, 4, 2)
        assert room.centre == Point(2, 1)
        assert room.area == 8.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Room("a", 0, 0, 0, 3)

    def test_rejects_reserved_name(self):
        with pytest.raises(ValueError):
            Room(OUTSIDE, 0, 0, 1, 1)


class TestWall:
    def test_rejects_unknown_material(self):
        with pytest.raises(ValueError):
            Wall(Segment(Point(0, 0), Point(1, 0)), material="unobtanium")


class TestBeaconPlacement:
    def test_beacon_id_from_major_minor(self):
        beacon = make_beacon(7, Point(1, 1), "a", major=2)
        assert beacon.beacon_id == "2-7"

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            BeaconPlacement(
                packet=make_beacon(1, Point(0, 0), "a").packet,
                position=Point(0, 0),
                room="a",
                advertising_interval_s=0.0,
            )


class TestFloorPlan:
    def make_plan(self):
        rooms = [Room("a", 0, 0, 4, 4), Room("b", 4, 0, 8, 4)]
        walls = [Wall(Segment(Point(4, 0), Point(4, 3)), "drywall")]
        return FloorPlan(rooms, walls)

    def test_duplicate_room_names_rejected(self):
        with pytest.raises(ValueError):
            FloorPlan([Room("a", 0, 0, 1, 1), Room("a", 2, 0, 3, 1)])

    def test_room_lookup(self):
        plan = self.make_plan()
        assert plan.room("a").name == "a"
        with pytest.raises(KeyError):
            plan.room("zzz")

    def test_room_at_interior(self):
        plan = self.make_plan()
        assert plan.room_at(Point(1, 1)) == "a"
        assert plan.room_at(Point(5, 1)) == "b"

    def test_room_at_outside(self):
        plan = self.make_plan()
        assert plan.room_at(Point(100, 100)) == OUTSIDE

    def test_labels_include_outside(self):
        plan = self.make_plan()
        assert plan.labels == ["a", "b", OUTSIDE]

    def test_add_beacon_unknown_room_rejected(self):
        plan = self.make_plan()
        with pytest.raises(ValueError):
            plan.add_beacon(make_beacon(1, Point(1, 1), "nope"))

    def test_add_duplicate_beacon_rejected(self):
        plan = self.make_plan()
        plan.add_beacon(make_beacon(1, Point(1, 1), "a"))
        with pytest.raises(ValueError):
            plan.add_beacon(make_beacon(1, Point(2, 2), "b"))

    def test_duplicate_beacon_in_constructor_rejected(self):
        """Beacon ids are unique per plan, so the scanner may key a
        beacon by its advertiser index."""
        rooms = self.make_plan().rooms
        beacons = [make_beacon(1, Point(1, 1), "a"), make_beacon(1, Point(2, 2), "b")]
        with pytest.raises(ValueError):
            FloorPlan(rooms=rooms, beacons=beacons)

    def test_beacon_lookup(self):
        plan = self.make_plan()
        plan.add_beacon(make_beacon(3, Point(1, 1), "a"))
        assert plan.beacon("1-3").room == "a"
        with pytest.raises(KeyError):
            plan.beacon("9-9")

    def test_walls_crossed_through_divider(self):
        plan = self.make_plan()
        assert plan.walls_crossed((1, 1), (7, 1)) == ["drywall"]

    def test_walls_crossed_through_doorway(self):
        plan = self.make_plan()
        # The divider stops at y=3; pass above it.
        assert plan.walls_crossed((1, 3.5), (7, 3.5)) == []

    def test_walls_crossed_same_room(self):
        plan = self.make_plan()
        assert plan.walls_crossed((1, 1), (2, 2)) == []

    def test_bounds(self):
        assert self.make_plan().bounds() == (0, 0, 8, 4)

    def test_bounds_empty_plan_raises(self):
        with pytest.raises(ValueError):
            FloorPlan([]).bounds()

    def test_repr_mentions_rooms(self):
        assert "a" in repr(self.make_plan())


# ----------------------------------------------------------------------
# Hypothesis: the array wall predicate against its scalar oracle
# ----------------------------------------------------------------------
#: Exact multipliers: with integer wall coordinates, every point built
#: from them lies exactly where it is meant to (on a wall, its line or
#: an end point), so the predicate's _EPS branches are reached.
DYADIC = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
FREE_POINT = st.tuples(
    st.floats(-3.0, 15.0, allow_nan=False), st.floats(-3.0, 10.0, allow_nan=False)
)


@st.composite
def rays(draw, plan):
    """One ray ``(tx, rx)``, mostly meeting a wall at an edge case.

    Kinds: free; through a wall end point; ending on a wall or its
    line (either end); running along a wall's line; zero length.
    """
    walls = [(w.segment.a.as_tuple(), w.segment.b.as_tuple()) for w in plan.walls]
    kind = draw(st.sampled_from(["free", "through-end", "ends-on", "along", "zero"]))
    if not walls or kind == "free":
        return draw(FREE_POINT), draw(FREE_POINT)
    a, b = draw(st.sampled_from(walls))

    def on_line(t):
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

    if kind == "through-end":
        e = draw(st.sampled_from([a, b]))
        dx, dy, k = draw(DYADIC), draw(DYADIC), draw(DYADIC)
        tx, rx = (e[0] + dx, e[1] + dy), (e[0] - k * dx, e[1] - k * dy)
    elif kind == "ends-on":
        tx, rx = draw(FREE_POINT), on_line(draw(DYADIC))
    elif kind == "along":
        tx, rx = on_line(draw(DYADIC)), on_line(draw(DYADIC))
    else:
        tx = rx = draw(st.one_of(FREE_POINT, DYADIC.map(on_line)))
    return (rx, tx) if draw(st.booleans()) else (tx, rx)


@st.composite
def random_plans(draw):
    """Up to six walls on an integer grid, zero-length ones included."""
    corner = st.tuples(st.integers(-2, 12), st.integers(-2, 8))
    walls = [
        Wall(Segment(Point(*draw(corner)), Point(*draw(corner))), material)
        for material in draw(
            st.lists(st.sampled_from(sorted(WALL_MATERIALS)), max_size=6)
        )
    ]
    return FloorPlan(rooms=[Room("a", -2.0, -2.0, 12.0, 8.0)], walls=walls)


def assert_wall_losses_match_oracle(plan, pairs):
    """Every input shape the drives use: one pair, ``(n,)`` and ``(M, n)``."""
    tx = np.array([t for t, _ in pairs], dtype=float)
    rx = np.array([r for _, r in pairs], dtype=float)
    oracle = np.array(
        [wall_loss_db(plan.walls_crossed(t, r)) for t, r in pairs], dtype=float
    )
    for i, (t, r) in enumerate(pairs):
        one = plan.wall_losses(np.array(t), np.array(r))
        assert one.shape == () and one == oracle[i], (t, r)
    assert plan.wall_losses(tx, rx).tobytes() == oracle.tobytes()
    # (M, n): M receivers per transmitter column, as in a columnar tick.
    rx_m = np.stack([rx, rx[::-1], tx])
    oracle_m = np.array(
        [
            [wall_loss_db(plan.walls_crossed(tuple(t), tuple(r))) for t, r in zip(tx, row)]
            for row in rx_m
        ]
    )
    assert plan.wall_losses(tx, rx_m).tobytes() == oracle_m.tobytes()


HOUSE = presets.test_house()


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(rays(HOUSE), min_size=1, max_size=12))
def test_wall_losses_equal_scalar_oracle_on_the_test_house(pairs):
    assert_wall_losses_match_oracle(HOUSE, pairs)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_wall_losses_equal_scalar_oracle_on_random_plans(data):
    plan = data.draw(random_plans())
    pairs = data.draw(st.lists(rays(plan), min_size=1, max_size=8))
    assert_wall_losses_match_oracle(plan, pairs)


# ----------------------------------------------------------------------
# The wall function's collinear cases and its kept wall table
# ----------------------------------------------------------------------
#: Beacon 1-2 of the test house at (9, 2) lies on the line of the
#: x = 9 drywall from (9, 4) to (9, 6), below the wall.
ON_LINE_BEACON = (9.0, 2.0)


def test_a_beacon_on_a_walls_line_matches_the_oracle():
    assert ON_LINE_BEACON in [b.position.as_tuple() for b in HOUSE.beacons]
    receivers = [
        (9.0, 3.0),  # on the line, short of the wall
        (9.0, 4.0),  # the wall's end point
        (9.0, 5.0),  # on the wall
        (9.0, 6.5),  # through the whole wall
        (9.0, 2.0),  # zero-length ray
        (3.0, 5.5),  # across the house
        (10.5, 5.5),
        (7.5, 5.5),
    ]
    assert_wall_losses_match_oracle(HOUSE, [(ON_LINE_BEACON, r) for r in receivers])


def test_a_transmitter_on_a_wall_crosses_it_whatever_the_receiver():
    tx = (9.0, 5.0)  # on the x = 9 drywall
    receivers = [(1.0, 1.0), (9.0, 5.0), (11.5, 6.5), (9.0, 0.5), (6.0, 6.0)]
    assert_wall_losses_match_oracle(HOUSE, [(tx, r) for r in receivers])
    assert_wall_losses_match_oracle(HOUSE, [(r, tx) for r in receivers])


def test_receivers_on_wall_lines_and_end_points_match_the_oracle():
    ends = {
        p
        for w in HOUSE.walls
        for p in (w.segment.a.as_tuple(), w.segment.b.as_tuple())
    }
    receivers = sorted(ends) + [
        (6.0, 1.5),  # on the x = 6 drywall
        (6.0, 3.5),  # on its line, past its end
        (2.0, 4.0),  # on the y = 4 drywall
        (4.5, 4.0),  # the doorway between two y = 4 walls
        (12.0, 3.0),  # on the east outer wall
        (-1.0, 7.0),  # on the north wall's line, outside
    ]
    for beacon in HOUSE.beacons:
        tx = beacon.position.as_tuple()
        assert_wall_losses_match_oracle(HOUSE, [(tx, r) for r in receivers])


def test_the_wall_table_is_kept_until_the_walls_change():
    plan = presets.test_house()
    tx = np.array([[3.0, 2.0], [9.0, 2.0]])
    rx = np.array([[3.0, 6.0], [9.0, 6.5]])
    before = plan.wall_losses(tx, rx)
    table = plan._wall_table()
    plan.wall_losses(tx, rx)
    assert plan._wall_table() is table

    def expected():
        return np.array(
            [wall_loss_db(plan.walls_crossed(tuple(t), tuple(r))) for t, r in zip(tx, rx)]
        )

    # Appending a wall across both rays.
    plan.walls.append(Wall(Segment(Point(0.0, 3.0), Point(12.0, 3.0)), "concrete"))
    after = plan.wall_losses(tx, rx)
    assert plan._wall_table() is not table
    assert after.tobytes() == expected().tobytes()
    assert (after > before).all()
    # Replacing one in place, removing one, and reassigning the list.
    plan.walls[-1] = Wall(Segment(Point(0.0, 3.0), Point(6.0, 3.0)), "glass")
    assert plan.wall_losses(tx, rx).tobytes() == expected().tobytes()
    plan.walls.pop()
    assert plan.wall_losses(tx, rx).tobytes() == before.tobytes()
    plan.walls = plan.walls[:4]
    assert plan.wall_losses(tx, rx).tobytes() == expected().tobytes()
    plan.walls = []
    assert plan.wall_losses(tx, rx).tobytes() == np.zeros(2).tobytes()
