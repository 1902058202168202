"""Tests for the end-to-end channel model.

Every draw goes through ``link_budget_many``; the per-sample budget of
``tests/channel_oracle.py`` is the reference it is pinned against.
"""

import numpy as np
import pytest

from repro.radio.channel import ChannelModel
from repro.radio.devices import DEVICE_PROFILES
from repro.radio.fading import RicianFading
from repro.radio.materials import wall_loss_db
from repro.radio.pathloss import LogDistancePathLoss
from tests.channel_oracle import budgets, link_budget

IDEAL = DEVICE_PROFILES["ideal"]
S3 = DEVICE_PROFILES["s3_mini"]


def quiet_channel(**overrides):
    """A channel with every random impairment disabled."""
    defaults = dict(
        shadowing_sigma_db=0.0,
        fading=None,
        collision_loss_prob=0.0,
        seed=0,
    )
    defaults.update(overrides)
    return ChannelModel(**defaults)


def one_budget(channel, tx_id, tx_pos, rx_pos, tx_power_dbm, device, rng):
    """One sample drawn through ``link_budget_many``, as a budget row."""
    batch = channel.link_budget_many(
        [tx_id], [tx_pos], [rx_pos], [tx_power_dbm], device, rng
    )
    return budgets(batch)[0]


class TestLinkBudget:
    def test_quiet_channel_matches_path_loss_exactly(self, rng):
        channel = quiet_channel()
        budget = one_budget(channel, "b1", (0.0, 0.0), (2.0, 0.0), -59.0, IDEAL, rng)
        expected = LogDistancePathLoss().rssi(2.0, -59.0)
        assert budget.rssi == pytest.approx(expected)
        assert budget.received

    def test_distance_recorded(self, rng):
        channel = quiet_channel()
        budget = one_budget(channel, "b1", (0.0, 0.0), (3.0, 4.0), -59.0, IDEAL, rng)
        assert budget.distance_m == pytest.approx(5.0)

    def test_rx_gain_shifts_rssi(self, rng):
        channel = quiet_channel()
        base = one_budget(channel, "b1", (0.0, 0.0), (2.0, 0.0), -59.0, IDEAL, rng)
        gained_profile = DEVICE_PROFILES["ideal"].__class__(
            name="gained", rx_gain_db=6.0, rssi_noise_db=0.0,
            sensitivity_dbm=-120.0, rssi_quantisation_db=0.0, extra_loss_prob=0.0,
        )
        gained = one_budget(
            channel, "b1", (0.0, 0.0), (2.0, 0.0), -59.0, gained_profile, rng
        )
        assert gained.rssi - base.rssi == pytest.approx(6.0)

    def test_wall_oracle_attenuates(self, rng):
        free = quiet_channel()
        walled = quiet_channel(
            wall_oracle=lambda tx, rx: np.full(
                np.shape(rx)[:-1], wall_loss_db(["concrete"])
            )
        )
        open_rssi = one_budget(free, "b1", (0, 0), (2, 0), -59.0, IDEAL, rng).rssi
        blocked = one_budget(walled, "b1", (0, 0), (2, 0), -59.0, IDEAL, rng).rssi
        assert open_rssi - blocked == pytest.approx(12.0)

    def test_below_sensitivity_not_received(self, rng):
        channel = quiet_channel()
        profile = DEVICE_PROFILES["ideal"].__class__(
            name="deaf", rx_gain_db=0.0, rssi_noise_db=0.0,
            sensitivity_dbm=-20.0, rssi_quantisation_db=0.0, extra_loss_prob=0.0,
        )
        budget = one_budget(channel, "b1", (0, 0), (10, 0), -59.0, profile, rng)
        assert not budget.received

    def test_shadowing_constant_at_fixed_position(self):
        channel = ChannelModel(
            shadowing_sigma_db=4.0, fading=None, collision_loss_prob=0.0, seed=2
        )
        rng = np.random.default_rng(0)
        first = one_budget(channel, "b1", (0, 0), (3, 1), -59.0, IDEAL, rng).shadowing_db
        second = one_budget(channel, "b1", (0, 0), (3, 1), -59.0, IDEAL, rng).shadowing_db
        assert first == second

    def test_shadowing_differs_between_transmitters(self):
        channel = ChannelModel(
            shadowing_sigma_db=4.0, fading=None, collision_loss_prob=0.0, seed=2
        )
        rng = np.random.default_rng(0)
        a = one_budget(channel, "b1", (0, 0), (3, 1), -59.0, IDEAL, rng).shadowing_db
        b = one_budget(channel, "b2", (0, 0), (3, 1), -59.0, IDEAL, rng).shadowing_db
        assert a != b


class TestSampleRssi:
    """Received and lost single samples, one-sample windows."""

    def test_none_when_lost(self, rng):
        channel = quiet_channel(collision_loss_prob=1.0)
        assert not one_budget(channel, "b1", (0, 0), (2, 0), -59.0, IDEAL, rng).received

    def test_value_when_received(self, rng):
        channel = quiet_channel()
        budget = one_budget(channel, "b1", (0, 0), (2, 0), -59.0, IDEAL, rng)
        assert budget.received
        assert isinstance(budget.rssi, float)

    def test_loss_rate_roughly_matches_probability(self):
        channel = quiet_channel(collision_loss_prob=0.3)
        rng = np.random.default_rng(7)
        received = sum(
            one_budget(channel, "b1", (0, 0), (2, 0), -59.0, IDEAL, rng).received
            for _ in range(2000)
        )
        assert 0.62 < received / 2000 < 0.78

    def test_stack_bug_losses_add_on_top(self):
        channel = quiet_channel(collision_loss_prob=0.0)
        rng = np.random.default_rng(7)
        received = sum(
            one_budget(channel, "b1", (0, 0), (2, 0), -59.0, S3, rng).received
            for _ in range(2000)
        )
        # S3 Mini extra_loss_prob = 0.10.
        assert 0.85 < received / 2000 < 0.95

    def test_rejects_bad_collision_prob(self):
        with pytest.raises(ValueError):
            ChannelModel(collision_loss_prob=1.5)


class TestLinkBudgetMany:
    """The vectorised batch path pinned against the scalar budget."""

    POSITIONS = [(2.0, 0.0), (3.0, 4.0), (0.5, 0.5), (7.0, 1.0), (1.0, 6.0)]

    def _batch_inputs(self, n=None):
        rx = self.POSITIONS if n is None else self.POSITIONS[:n]
        k = len(rx)
        tx_ids = ["b1", "b2", "b1", "b3", "b2"][:k]
        tx_pos = [(0.0, 0.0)] * k
        powers = [-59.0, -59.0, -56.0, -59.0, -62.0][:k]
        return tx_ids, tx_pos, rx, powers

    def test_quiet_channel_matches_scalar_path_exactly(self, rng):
        channel = quiet_channel()
        tx_ids, tx_pos, rx, powers = self._batch_inputs()
        batch = channel.link_budget_many(tx_ids, tx_pos, rx, powers, IDEAL, rng)
        for i, budget in enumerate(budgets(batch)):
            scalar = link_budget(
                channel, tx_ids[i], tx_pos[i], rx[i], powers[i], IDEAL, rng
            )
            assert budget == scalar

    def test_deterministic_components_match_scalar_path(self, rng):
        channel = ChannelModel(
            shadowing_sigma_db=4.0,
            fading=RicianFading(k_factor=6.0),
            wall_oracle=lambda tx, rx: np.where(
                tx[..., 0] < rx[..., 0], wall_loss_db(["drywall"]), 0.0
            ),
            collision_loss_prob=0.05,
            seed=3,
        )
        tx_ids, tx_pos, rx, powers = self._batch_inputs()
        batch = channel.link_budget_many(tx_ids, tx_pos, rx, powers, S3, rng)
        for i in range(len(batch)):
            scalar = link_budget(
                channel, tx_ids[i], tx_pos[i], rx[i], powers[i], S3, rng
            )
            assert batch.distance_m[i] == scalar.distance_m
            assert batch.path_loss_db[i] == scalar.path_loss_db
            assert batch.wall_loss_db[i] == scalar.wall_loss_db
            assert batch.shadowing_db[i] == scalar.shadowing_db

    def test_same_seed_reproduces_batch(self):
        channel = ChannelModel(shadowing_sigma_db=4.0, seed=3)
        tx_ids, tx_pos, rx, powers = self._batch_inputs()
        first = channel.link_budget_many(
            tx_ids, tx_pos, rx, powers, S3, np.random.default_rng(11)
        )
        second = channel.link_budget_many(
            tx_ids, tx_pos, rx, powers, S3, np.random.default_rng(11)
        )
        assert np.array_equal(first.rssi, second.rssi)
        assert np.array_equal(first.received, second.received)

    def test_noise_draw_order_is_component_major(self):
        # With fading disabled, the first rng consumption is the noise
        # vector: one normal(0, sigma) draw per sample, batch-sized.
        channel = quiet_channel()
        tx_ids, tx_pos, rx, powers = self._batch_inputs()
        profile = IDEAL.__class__(
            name="noisy", rx_gain_db=0.0, rssi_noise_db=2.0,
            sensitivity_dbm=-120.0, rssi_quantisation_db=0.0, extra_loss_prob=0.0,
        )
        batch = channel.link_budget_many(
            tx_ids, tx_pos, rx, powers, profile, np.random.default_rng(5)
        )
        expected = np.random.default_rng(5).normal(0.0, 2.0, size=len(tx_ids))
        assert np.array_equal(batch.noise_db, expected)

    def test_quantisation_applied_to_batch(self, rng):
        channel = quiet_channel()
        tx_ids, tx_pos, rx, powers = self._batch_inputs()
        batch = channel.link_budget_many(tx_ids, tx_pos, rx, powers, S3, rng)
        q = S3.rssi_quantisation_db
        assert np.array_equal(batch.rssi, np.rint(batch.rssi / q) * q)

    def test_collision_probability_one_loses_everything(self, rng):
        channel = quiet_channel(collision_loss_prob=1.0)
        tx_ids, tx_pos, rx, powers = self._batch_inputs()
        batch = channel.link_budget_many(tx_ids, tx_pos, rx, powers, IDEAL, rng)
        assert not batch.received.any()

    def test_empty_batch(self, rng):
        channel = quiet_channel()
        batch = channel.link_budget_many([], [], [], [], IDEAL, rng)
        assert len(batch) == 0
        assert budgets(batch) == []

    def test_loss_rate_roughly_matches_probability(self):
        channel = quiet_channel(collision_loss_prob=0.3)
        rng = np.random.default_rng(7)
        n = 2000
        batch = channel.link_budget_many(
            ["b1"] * n, [(0, 0)] * n, [(2, 0)] * n, [-59.0] * n, IDEAL, rng
        )
        assert 0.62 < batch.received.mean() < 0.78
