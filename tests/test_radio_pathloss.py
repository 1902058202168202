"""Tests for the log-distance path-loss model and its inversion."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.radio.pathloss import (
    MAX_ESTIMATED_DISTANCE_M,
    MIN_DISTANCE_M,
    LogDistancePathLoss,
    distance_from_rssi,
    rssi_from_distance,
)


class TestForwardModel:
    def test_rssi_at_reference_distance_equals_tx_power(self):
        assert rssi_from_distance(1.0, -59.0, 2.0) == pytest.approx(-59.0)

    def test_rssi_decreases_with_distance(self):
        near = rssi_from_distance(1.0, -59.0, 2.0)
        far = rssi_from_distance(4.0, -59.0, 2.0)
        assert far < near

    def test_exponent_2_gives_6db_per_doubling(self):
        d1 = rssi_from_distance(2.0, -59.0, 2.0)
        d2 = rssi_from_distance(4.0, -59.0, 2.0)
        assert d1 - d2 == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)

    def test_vectorised_input(self):
        out = rssi_from_distance(np.array([1.0, 10.0]), -59.0, 2.0)
        assert out.shape == (2,)
        assert out[0] > out[1]

    def test_distance_clamped_below_min(self):
        assert rssi_from_distance(0.0, -59.0, 2.0) == rssi_from_distance(
            MIN_DISTANCE_M, -59.0, 2.0
        )


class TestInversion:
    def test_inverts_reference_point(self):
        assert distance_from_rssi(-59.0, -59.0, 2.0) == pytest.approx(1.0)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            distance_from_rssi(-70.0, -59.0, 0.0)

    def test_rejects_a_nonpositive_exponent_in_a_column(self):
        with pytest.raises(ValueError):
            distance_from_rssi(np.full((2, 3), -70.0), -59.0, np.array([[2.2], [0.0]]))

    def test_block_equals_scalar_calls(self):
        """A ``(device, beacon)`` block with a TX power row and an
        exponent column ranges every cell as a scalar call does."""
        rng = np.random.default_rng(1)
        rssi = rng.uniform(-100.0, -40.0, size=(4, 5))
        tx_power = rng.choice([-59.0, -62.0, -56.0], size=5)
        exponent = np.array([[2.2], [2.0], [3.1], [2.2]])
        block = distance_from_rssi(rssi, tx_power, exponent)
        for d in range(4):
            for j in range(5):
                scalar = distance_from_rssi(
                    float(rssi[d, j]), float(tx_power[j]), float(exponent[d, 0])
                )
                assert float(block[d, j]) == scalar

    def test_clamps_very_weak_signal(self):
        assert distance_from_rssi(-200.0, -59.0, 2.0) == MAX_ESTIMATED_DISTANCE_M

    def test_clamps_very_strong_signal(self):
        assert distance_from_rssi(0.0, -59.0, 2.0) == MIN_DISTANCE_M

    @given(
        distance=st.floats(0.2, 50.0),
        tx_power=st.floats(-80.0, -40.0),
        exponent=st.floats(1.5, 4.0),
    )
    def test_roundtrip_property(self, distance, tx_power, exponent):
        rssi = rssi_from_distance(distance, tx_power, exponent)
        back = distance_from_rssi(rssi, tx_power, exponent)
        assert back == pytest.approx(distance, rel=1e-6)

    @given(
        rssi_a=st.floats(-95.0, -40.0),
        rssi_b=st.floats(-95.0, -40.0),
    )
    def test_monotone_decreasing_in_rssi(self, rssi_a, rssi_b):
        d_a = distance_from_rssi(rssi_a, -59.0, 2.2)
        d_b = distance_from_rssi(rssi_b, -59.0, 2.2)
        if rssi_a < rssi_b:
            assert d_a >= d_b
        elif rssi_a > rssi_b:
            assert d_a <= d_b


class TestConfiguredModel:
    def test_defaults(self):
        model = LogDistancePathLoss()
        assert model.exponent == 2.2
        assert model.reference_distance_m == 1.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=-1.0)

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_distance_m=0.0)

    def test_model_matches_free_functions(self):
        model = LogDistancePathLoss(exponent=2.5)
        assert model.rssi(3.0, -59.0) == pytest.approx(
            rssi_from_distance(3.0, -59.0, 2.5)
        )
        assert model.distance(-70.0, -59.0) == pytest.approx(
            distance_from_rssi(-70.0, -59.0, 2.5)
        )

    def test_scalar_in_scalar_out(self):
        model = LogDistancePathLoss()
        assert isinstance(model.rssi(2.0, -59.0), float)
        assert isinstance(model.distance(-70.0, -59.0), float)
