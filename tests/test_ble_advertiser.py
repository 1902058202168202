"""Tests for advertiser scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.advertiser import (
    _JITTER_BLOCK,
    ADV_DELAY_MAX_S,
    Advertiser,
    _jitter_block,
    advertisement_times,
)
from repro.building.geometry import Point
from repro.building.presets import make_beacon
from tests.advertiser_oracle import slot_jitter, slot_times


def assert_bitwise(times, expected):
    assert np.asarray(times, dtype=float).tobytes() == np.asarray(
        expected, dtype=float
    ).tobytes()


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
    """The process-wide advDelay block memo never changes a schedule."""

    def test_cleared_and_warm_memo_give_the_same_times(self):
        _jitter_block.cache_clear()
        cold = advertisement_times(0.0, 20.0, 0.1, seed=7)
        warm = advertisement_times(0.0, 20.0, 0.1, seed=7)
        assert _jitter_block.cache_info().hits > 0
        assert warm == cold

    def test_memo_equals_the_pure_jitter(self):
        _jitter_block.cache_clear()
        for block in (0, 1, 17):
            first = block * _JITTER_BLOCK
            pure = [slot_jitter(7, k) for k in range(first, first + _JITTER_BLOCK)]
            assert_bitwise(_jitter_block(7, block), pure)
            assert_bitwise(_jitter_block.__wrapped__(7, block), pure)

    def test_windows_past_the_memo_bound_stay_the_same(self):
        # 4,000 slots (63 blocks) evict the 16-block memo's early
        # entries several times.
        _jitter_block.cache_clear()
        long_window = advertisement_times(0.0, 400.0, 0.1, seed=3)
        _jitter_block.cache_clear()
        assert advertisement_times(0.0, 400.0, 0.1, seed=3) == long_window
        assert advertisement_times(0.0, 2.0, 0.1, seed=3) == long_window[:20]
        assert_bitwise(long_window, slot_times(0.0, 400.0, 0.1, seed=3))

    def test_memo_holds_at_most_1024_slots(self):
        assert _jitter_block.cache_info().maxsize * _JITTER_BLOCK <= 1024

    def test_blocks_are_read_only(self):
        with pytest.raises(ValueError):
            _jitter_block(7, 0)[0] = 0.0


class TestPerSlotOracle:
    """Windows against the per-slot schedule of ``tests/advertiser_oracle``."""

    @pytest.mark.parametrize(
        "t_start, t_end",
        [
            (6.0, 8.0),  # slot 64 at 6.4 s: the first block edge
            (6.35, 6.45),  # slots 63-66
            (6.4, 6.41),
            (6.0, 6.3),  # slots 59-64: the last slot opens block 1
            (6.45, 6.6),  # slots 64-67: the first slot opens block 1
            (12.5, 12.7),  # slots 124-128: the second edge
            (5.0, 20.0),  # three blocks in one window
        ],
    )
    def test_windows_straddling_a_block_edge(self, t_start, t_end):
        _jitter_block.cache_clear()
        for seed in (3, 2**64 - 1):
            assert_bitwise(
                advertisement_times(t_start, t_end, 0.1, seed=seed),
                slot_times(t_start, t_end, 0.1, seed=seed),
            )

    @pytest.mark.parametrize(
        "t_start, t_end, phase_s",
        [
            (0.0, 2.0, 0.0),
            (0.0, 0.005, 0.0),
            (0.0, 0.0, 0.0),
            (-0.5, 0.3, 0.0),
            (-3.0, -1.0, 0.0),
            (0.001, 0.2, 0.05),
            (0.0, 1.0, -0.25),
            (0.0, 1.0, 0.7),
        ],
    )
    def test_slot_zero_clamp_near_t0(self, t_start, t_end, phase_s):
        _jitter_block.cache_clear()
        assert_bitwise(
            advertisement_times(t_start, t_end, 0.1, seed=9, phase_s=phase_s),
            slot_times(t_start, t_end, 0.1, seed=9, phase_s=phase_s),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        t_start=st.floats(-1.0, 40.0, allow_nan=False),
        span=st.floats(0.0, 8.0, allow_nan=False),
        interval_s=st.sampled_from([0.1, 0.05, 0.3, 0.1234, 1.0]),
        phase_s=st.sampled_from([0.0, 0.05, -0.2, 0.7]),
    )
    def test_any_window(self, seed, t_start, span, interval_s, phase_s):
        assert_bitwise(
            advertisement_times(
                t_start, t_start + span, interval_s, seed=seed, phase_s=phase_s
            ),
            slot_times(t_start, t_start + span, interval_s, seed=seed, phase_s=phase_s),
        )
