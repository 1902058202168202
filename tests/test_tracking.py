"""Tests for movement tracking, dwell stats and the movement graph."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tracking.events import RoomTransition
from repro.tracking.graph import (
    build_movement_graph,
    busiest_transitions,
    reachable_rooms,
)
from repro.tracking.stats import compute_dwell_stats
from repro.tracking.tracker import OccupantTracker


def transition(t, device, a, b):
    return RoomTransition(time=t, device_id=device, from_room=a, to_room=b)


class TestRoomTransition:
    def test_same_room_rejected(self):
        with pytest.raises(ValueError):
            transition(0.0, "a", "kitchen", "kitchen")

    def test_str(self):
        text = str(transition(1.5, "alice", "kitchen", "living"))
        assert "alice" in text and "kitchen" in text and "living" in text


class TestOccupantTracker:
    def test_first_fix_is_not_a_transition(self):
        tracker = OccupantTracker(confirm_cycles=1)
        assert tracker.observe(0.0, "a", "kitchen") is None
        assert tracker.current_room("a") == "kitchen"

    def test_single_cycle_confirmation(self):
        tracker = OccupantTracker(confirm_cycles=1)
        tracker.observe(0.0, "a", "kitchen")
        result = tracker.observe(2.0, "a", "living")
        assert result is not None
        assert result.from_room == "kitchen"
        assert result.to_room == "living"

    def test_debounce_suppresses_single_flicker(self):
        tracker = OccupantTracker(confirm_cycles=2)
        tracker.observe(0.0, "a", "kitchen")
        assert tracker.observe(2.0, "a", "living") is None  # flicker
        assert tracker.observe(4.0, "a", "kitchen") is None  # back
        assert tracker.transitions == []
        assert tracker.current_room("a") == "kitchen"

    def test_debounced_transition_confirmed_at_candidate_time(self):
        tracker = OccupantTracker(confirm_cycles=2)
        tracker.observe(0.0, "a", "kitchen")
        tracker.observe(2.0, "a", "living")
        result = tracker.observe(4.0, "a", "living")
        assert result is not None
        assert result.time == 2.0  # when the move actually started

    def test_candidate_switch_resets_count(self):
        tracker = OccupantTracker(confirm_cycles=2)
        tracker.observe(0.0, "a", "kitchen")
        tracker.observe(2.0, "a", "living")
        tracker.observe(4.0, "a", "bedroom")  # different candidate
        assert tracker.observe(6.0, "a", "bedroom") is not None

    def test_devices_tracked_independently(self):
        tracker = OccupantTracker(confirm_cycles=1)
        tracker.observe(0.0, "a", "kitchen")
        tracker.observe(0.0, "b", "living")
        tracker.observe(2.0, "a", "living")
        assert tracker.current_room("a") == "living"
        assert tracker.current_room("b") == "living"
        assert len(tracker.journey("a")) == 1
        assert tracker.journey("b") == []

    def test_unknown_device_room_is_none(self):
        assert OccupantTracker().current_room("ghost") is None

    def test_rejects_bad_confirm_cycles(self):
        with pytest.raises(ValueError):
            OccupantTracker(confirm_cycles=0)

    def test_from_predictions(self):
        predictions = {
            "a": [(2.0, "kitchen", "kitchen"), (4.0, "living", "living"),
                  (6.0, "living", "living")],
        }
        tracker = OccupantTracker.from_predictions(predictions, confirm_cycles=2)
        assert len(tracker.transitions) == 1
        truth_tracker = OccupantTracker.from_predictions(
            predictions, confirm_cycles=1, use_truth=True
        )
        assert len(truth_tracker.transitions) == 1


class TestDwellStats:
    def test_total_time_per_room(self):
        series = [(0.0, "kitchen"), (10.0, "kitchen"), (20.0, "living"),
                  (35.0, "living")]
        stats = compute_dwell_stats("a", series)
        assert stats.total_time_s["kitchen"] == pytest.approx(20.0)
        assert stats.total_time_s["living"] == pytest.approx(15.0)

    def test_visit_counting(self):
        series = [(0.0, "k"), (5.0, "l"), (10.0, "k"), (15.0, "k")]
        stats = compute_dwell_stats("a", series)
        assert stats.visits == {"k": 2, "l": 1}

    def test_mean_dwell(self):
        series = [(0.0, "k"), (10.0, "l"), (20.0, "k"), (30.0, "k")]
        stats = compute_dwell_stats("a", series)
        # k stays: 0-10 and 20-30 (open end contributes 10 via sample
        # spacing): total 20 over 2 visits.
        assert stats.mean_dwell_s("k") == pytest.approx(10.0)
        assert stats.mean_dwell_s("never") == 0.0

    def test_most_occupied(self):
        series = [(0.0, "k"), (30.0, "l"), (35.0, "l")]
        assert compute_dwell_stats("a", series).most_occupied() == "k"

    def test_most_occupied_empty_raises(self):
        with pytest.raises(ValueError):
            compute_dwell_stats("a", []).most_occupied()

    def test_occupancy_fraction(self):
        series = [(0.0, "k"), (30.0, "l"), (40.0, "l")]
        stats = compute_dwell_stats("a", series)
        assert stats.occupancy_fraction("k") == pytest.approx(0.75)

    def test_unordered_series_rejected(self):
        with pytest.raises(ValueError):
            compute_dwell_stats("a", [(5.0, "k"), (1.0, "l")])


class TestMovementGraph:
    def transitions(self):
        return [
            transition(1.0, "a", "kitchen", "living"),
            transition(2.0, "b", "kitchen", "living"),
            transition(3.0, "a", "living", "bedroom"),
            transition(4.0, "b", "living", "kitchen"),
        ]

    def test_edge_counts(self):
        graph = build_movement_graph(self.transitions())
        assert graph["kitchen"]["living"]["count"] == 2
        assert graph["living"]["bedroom"]["count"] == 1

    def test_edge_devices(self):
        graph = build_movement_graph(self.transitions())
        assert graph["kitchen"]["living"]["devices"] == {"a", "b"}

    def test_busiest_transitions(self):
        graph = build_movement_graph(self.transitions())
        top = busiest_transitions(graph, top=1)
        assert top == [("kitchen", "living", 2)]

    def test_busiest_rejects_bad_top(self):
        with pytest.raises(ValueError):
            busiest_transitions(build_movement_graph([]), top=0)

    def test_reachable_rooms(self):
        """Descendants of the start room (start itself excluded)."""
        graph = build_movement_graph(self.transitions())
        assert reachable_rooms(graph, "kitchen") == ["bedroom", "living"]
        assert reachable_rooms(graph, "bedroom") == []

    def test_reachable_unknown_room(self):
        with pytest.raises(KeyError):
            reachable_rooms(build_movement_graph([]), "atlantis")

    def test_needs_no_networkx(self):
        # The package declares numpy as its only dependency.
        script = (
            "import sys; sys.modules['networkx'] = None\n"
            "from repro.tracking import build_movement_graph\n"
            "from repro.tracking.events import RoomTransition\n"
            "hop = RoomTransition(time=1.0, device_id='a', "
            "from_room='kitchen', to_room='living')\n"
            "print(build_movement_graph([hop])['kitchen']['living']['count'])\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, [str(src), os.environ.get("PYTHONPATH")])
                ),
            },
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1\n"
