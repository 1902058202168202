"""Tests for fast-fading models."""

import numpy as np
import pytest

from repro.radio.fading import RayleighFading, RicianFading


class TestRician:
    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            RicianFading(k_factor=-1.0)

    def test_scalar_sample(self, rng):
        value = RicianFading(6.0).sample_db(rng)
        assert isinstance(value, float)

    def test_vector_sample_shape(self, rng):
        values = RicianFading(6.0).sample_db(rng, size=1000)
        assert values.shape == (1000,)

    def test_unit_mean_power(self, rng):
        """E[|h|^2] = 1, so mean linear power should be ~1 (0 dB)."""
        db = RicianFading(6.0).sample_db(rng, size=20000)
        mean_power = np.mean(10.0 ** (db / 10.0))
        assert mean_power == pytest.approx(1.0, rel=0.05)

    def test_higher_k_means_less_variance(self, rng):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        calm = RicianFading(20.0).sample_db(rng_a, size=5000)
        wild = RicianFading(0.5).sample_db(rng_b, size=5000)
        assert np.std(calm) < np.std(wild)

    def test_deterministic_given_rng(self):
        a = RicianFading(6.0).sample_db(np.random.default_rng(5), size=10)
        b = RicianFading(6.0).sample_db(np.random.default_rng(5), size=10)
        np.testing.assert_array_equal(a, b)


class TestRayleigh:
    def test_matches_k_zero_rician_statistics(self):
        ray = RayleighFading().sample_db(np.random.default_rng(1), size=5000)
        ric = RicianFading(0.0).sample_db(np.random.default_rng(1), size=5000)
        np.testing.assert_allclose(ray, ric)

    def test_heavier_tail_than_rician(self):
        ray = RayleighFading().sample_db(np.random.default_rng(2), size=5000)
        ric = RicianFading(10.0).sample_db(np.random.default_rng(2), size=5000)
        # Deep fades (below -10 dB) are common for Rayleigh, rare with
        # a strong LoS.
        assert np.mean(ray < -10.0) > np.mean(ric < -10.0)


def _envelope_as_drawn(k, real, imag):
    """The fading dB written out as one expression per step."""
    scatter = (real + 1j * imag) / np.sqrt(2.0)
    h = np.sqrt(k / (k + 1.0)) + np.sqrt(1.0 / (k + 1.0)) * scatter
    power = np.abs(h) ** 2
    return 10.0 * np.log10(np.maximum(power, 1e-12))


class TestEnvelopeDb:
    """``envelope_db`` runs its steps in place; the values stay the
    expression's, bit for bit."""

    @pytest.mark.parametrize("k", [0.0, 0.5, 6.0, 20.0])
    def test_equals_the_expression_bitwise(self, k):
        rng = np.random.default_rng(int(k * 10) + 1)
        draws = rng.standard_normal((6, 2 * 4000))
        # Zeros of either sign in either part.
        draws[0, :4] = [0.0, -0.0, 0.0, -0.0]
        draws[0, 4000:4004] = [0.0, 0.0, -0.0, -0.0]
        real, imag = draws[:, :4000], draws[:, 4000:]
        got = RicianFading(k).envelope_db(draws)
        assert got.tobytes() == _envelope_as_drawn(k, real, imag).tobytes()
        row = RicianFading(k).envelope_db(draws[2].copy())
        assert row.tobytes() == got[2].tobytes()

    def test_sample_db_draws_real_then_imaginary(self):
        rng = np.random.default_rng(3)
        values = RicianFading(6.0).sample_db(np.random.default_rng(3), size=50)
        real, imag = rng.normal(size=50), rng.normal(size=50)
        assert values.tobytes() == _envelope_as_drawn(6.0, real, imag).tobytes()

    def test_rayleigh_is_k_zero(self):
        normals = np.random.default_rng(4).standard_normal(600)
        assert (
            RayleighFading().envelope_db(normals).tobytes()
            == RicianFading(0.0).envelope_db(normals).tobytes()
        )

    @pytest.mark.parametrize("fading", [RicianFading(6.0), RayleighFading()])
    def test_normals_per_sample_sizes_the_block(self, fading):
        normals = np.random.default_rng(6).standard_normal(
            (3, fading.normals_per_sample * 25)
        )
        assert fading.envelope_db(normals).shape == (3, 25)
