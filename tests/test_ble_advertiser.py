"""Tests for advertiser scheduling."""

import pytest

from repro.ble.advertiser import (
    ADV_DELAY_MAX_S,
    Advertiser,
    _slot_jitter,
    advertisement_times,
)
from repro.building.geometry import Point
from repro.building.presets import make_beacon


class TestAdvertisementTimes:
    def test_count_matches_interval(self):
        times = advertisement_times(0.0, 10.0, 0.1, seed=1)
        assert 95 <= len(times) <= 101

    def test_all_times_within_window(self):
        times = advertisement_times(5.0, 8.0, 0.1, seed=1)
        assert all(5.0 <= t < 8.0 for t in times)

    def test_deterministic(self):
        assert advertisement_times(0, 5, 0.1, seed=3) == advertisement_times(
            0, 5, 0.1, seed=3
        )

    def test_different_seed_different_jitter(self):
        a = advertisement_times(0, 5, 0.1, seed=3)
        b = advertisement_times(0, 5, 0.1, seed=4)
        assert a != b

    def test_jitter_bounded(self):
        times = advertisement_times(0.0, 5.0, 0.1, seed=1)
        for k, t in enumerate(times):
            slot = round((t - 0.005) / 0.1)
            assert 0.0 <= t - slot * 0.1 <= ADV_DELAY_MAX_S + 1e-9

    def test_window_query_is_consistent_with_subwindows(self):
        """Querying [0,10) must equal [0,5) + [5,10)."""
        whole = advertisement_times(0.0, 10.0, 0.1, seed=5)
        parts = advertisement_times(0.0, 5.0, 0.1, seed=5) + advertisement_times(
            5.0, 10.0, 0.1, seed=5
        )
        assert whole == parts

    def test_phase_shifts_schedule(self):
        base = advertisement_times(0.0, 1.0, 0.1, seed=1, phase_s=0.0)
        shifted = advertisement_times(0.0, 1.0, 0.1, seed=1, phase_s=0.05)
        assert base != shifted

    def test_empty_window(self):
        assert advertisement_times(5.0, 5.0, 0.1) == []

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            advertisement_times(5.0, 4.0, 0.1)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            advertisement_times(0.0, 5.0, 0.0)

    def test_sorted_output(self):
        times = advertisement_times(0.0, 20.0, 0.3, seed=2)
        assert times == sorted(times)


class TestAdvertiser:
    def test_uses_placement_interval(self):
        beacon = make_beacon(1, Point(0, 0), "a", advertising_interval_s=0.5)
        adv = Advertiser(placement=beacon)
        times = adv.times_in(0.0, 10.0)
        assert 18 <= len(times) <= 21

    def test_distinct_beacons_have_distinct_schedules(self):
        a = Advertiser(placement=make_beacon(1, Point(0, 0), "a"))
        b = Advertiser(placement=make_beacon(2, Point(0, 0), "a"))
        assert a.times_in(0.0, 2.0) != b.times_in(0.0, 2.0)


class TestJitterMemo:
    """The process-wide advDelay memo never changes a schedule."""

    def test_cleared_and_warm_memo_give_the_same_times(self):
        _slot_jitter.cache_clear()
        cold = advertisement_times(0.0, 20.0, 0.1, seed=7)
        warm = advertisement_times(0.0, 20.0, 0.1, seed=7)
        assert _slot_jitter.cache_info().hits > 0
        assert warm == cold

    def test_memo_equals_the_pure_jitter(self):
        _slot_jitter.cache_clear()
        first = [_slot_jitter(7, k) for k in range(50)]
        assert [_slot_jitter.__wrapped__(7, k) for k in range(50)] == first

    def test_windows_past_the_memo_bound_stay_the_same(self):
        # 4,000 slots evict the bounded memo's early entries several times.
        _slot_jitter.cache_clear()
        long_window = advertisement_times(0.0, 400.0, 0.1, seed=3)
        _slot_jitter.cache_clear()
        assert advertisement_times(0.0, 400.0, 0.1, seed=3) == long_window
        assert advertisement_times(0.0, 2.0, 0.1, seed=3) == long_window[:20]
