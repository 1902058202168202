"""Statistical validation of the channel model.

These tests check the model produces the *statistics* it promises -
the foundation of every calibrated number in EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES
from repro.radio.fading import RicianFading
from repro.radio.shadowing import ShadowingField

IDEAL = DEVICE_PROFILES["ideal"]


def received_rssi(channel, rx, n, device, rng):
    """``n`` draws at ``rx`` in one ``link_budget_many`` window: the
    RSSI of the received samples and the received mask."""
    batch = channel.link_budget_many(
        ["b1"] * n, [(0.0, 0.0)] * n, [rx] * n, [-59.0] * n, device, rng
    )
    return batch.rssi[batch.received], batch.received


class TestShadowingStatistics:
    def test_autocorrelation_decays_with_distance(self):
        """Gudmundson: nearby points correlated, far points not."""
        rng = np.random.default_rng(0)
        near_deltas = []
        far_deltas = []
        for seed in range(40):
            field = ShadowingField(
                sigma_db=4.0, correlation_distance_m=3.0, link_seed=seed
            )
            base = field.sample(10.0, 10.0)
            near_deltas.append(field.sample(10.5, 10.0) - base)
            far_deltas.append(field.sample(40.0, 40.0) - base)
        assert np.std(near_deltas) < np.std(far_deltas)

    def test_field_mean_near_zero(self):
        field = ShadowingField(sigma_db=4.0, correlation_distance_m=1.0, link_seed=5)
        samples = [field.sample(x * 7.0, 0.0) for x in range(200)]
        assert abs(np.mean(samples)) < 1.0


class TestFadingStatistics:
    def test_rician_k_controls_envelope_variance(self):
        """Envelope variance must decrease monotonically in K."""
        stds = []
        for k in (0.0, 2.0, 8.0, 32.0):
            rng = np.random.default_rng(1)
            db = RicianFading(k).sample_db(rng, size=8000)
            stds.append(np.std(db))
        assert stds == sorted(stds, reverse=True)

    def test_rayleigh_deep_fade_probability(self):
        """P(power < 0.1) = 1 - exp(-0.1) ~ 9.5 % for Rayleigh."""
        rng = np.random.default_rng(2)
        db = RicianFading(0.0).sample_db(rng, size=20000)
        p_deep = np.mean(db < -10.0)
        assert p_deep == pytest.approx(1.0 - np.exp(-0.1), abs=0.01)


class TestEndToEndRssiStatistics:
    def test_mean_rssi_tracks_path_loss(self):
        """Averaged over fading/noise, RSSI must sit on the path-loss
        curve (per-position shadowing bias averaged over positions)."""
        channel = ChannelModel(seed=3)
        rng = np.random.default_rng(4)
        errors = []
        for i in range(30):
            # Different positions at the same 4 m range.
            angle = 2 * np.pi * i / 30
            rx = (4.0 * np.cos(angle), 4.0 * np.sin(angle))
            received, _ = received_rssi(channel, rx, 40, IDEAL, rng)
            errors.append(np.mean(received) - (-59.0 - 22.0 * np.log10(4.0)))
        assert abs(np.mean(errors)) < 1.5

    def test_rssi_variance_has_expected_scale(self):
        """At one fixed position the scan-to-scan std is fading +
        noise: a few dB for the default channel."""
        channel = ChannelModel(seed=5)
        rng = np.random.default_rng(6)
        received, _ = received_rssi(
            channel, (3.0, 1.0), 500, DEVICE_PROFILES["s3_mini"], rng
        )
        assert 1.0 < np.std(received) < 6.0

    def test_loss_rate_increases_with_distance(self):
        channel = ChannelModel(seed=7)
        rng = np.random.default_rng(8)
        device = DEVICE_PROFILES["s3_mini"]

        def loss_rate(distance):
            _, received = received_rssi(channel, (distance, 0.0), 400, device, rng)
            return float(np.mean(~received))

        assert loss_rate(40.0) > loss_rate(2.0)
