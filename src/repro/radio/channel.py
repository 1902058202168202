"""End-to-end link budget: the complete RSSI sampling model.

Combines the pieces of this package into the statistical channel the
rest of the reproduction consumes:

    RSSI = tx_power(1 m)                      (iBeacon calibration)
         - path loss (log-distance)
         - wall losses (materials crossed)
         + shadowing (spatially correlated, deterministic per position)
         + fast fading (Rician)
         + device RX gain
         + measurement noise
         -> quantised to the device's reporting granularity

A packet whose RSSI falls below the device's sensitivity, or that is
lost to advertising-channel collisions or stack bugs, is marked *not
received* - losses are first-class because the paper's filter design
(Section V) exists to tolerate them.

:meth:`ChannelModel.link_budget_many` draws one phone's window in two
passes that the columnar fleet drive also calls:
:meth:`~ChannelModel.seed_free_parts` over any leading device axis and
:meth:`~ChannelModel.draw_rssi` on a ``(receivers, samples)`` block,
one random stream per receiver (one row for a phone's scan, every
phone of one handset profile for the fleet drive's tick).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.obs import profiling
from repro.radio.devices import DeviceRadioProfile
from repro.radio.fading import RicianFading
from repro.radio.pathloss import LogDistancePathLoss
from repro.radio.shadowing import ShadowingField, sample_fields
from repro.sim.rng import derive_seed

__all__ = ["LinkBudgetBatch", "ChannelModel"]

Position = Tuple[float, float]

#: Callable giving the wall loss in dB along the straight rays between
#: arrays of transmitter and receiver positions, shape ``(..., 2)``;
#: the loss array has their broadcast shape minus the last axis.
#: Provided by the building geometry (``FloorPlan.wall_losses``).
WallOracle = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LinkBudgetBatch:
    """Column-wise link budgets for a batch of samples.

    Every attribute is an array over the batch, in input order; all
    values are in dB / dBm.  ``rssi`` is the final quantised value and
    ``received`` is False where the sample was lost (below sensitivity
    or dropped); a lost sample still carries its budget for analysis.
    """

    distance_m: np.ndarray
    tx_power_dbm: np.ndarray
    path_loss_db: np.ndarray
    wall_loss_db: np.ndarray
    shadowing_db: np.ndarray
    fading_db: np.ndarray
    rx_gain_db: float
    noise_db: np.ndarray
    rssi: np.ndarray
    received: np.ndarray

    def __len__(self) -> int:
        return len(self.rssi)


class ChannelModel:
    """Statistical BLE channel between fixed beacons and mobile phones.

    One instance models the whole building; per-transmitter shadowing
    fields are created lazily and keyed by transmitter id so the field
    is stable across calls (a static phone sees a constant shadowing
    offset, as in the paper's static traces).

    Args:
        path_loss: log-distance model (exponent etc.).
        shadowing_sigma_db: std-dev of the per-transmitter shadowing
            fields; 0 disables shadowing.
        shadowing_correlation_m: Gudmundson correlation distance.
        fading: fast-fading model; ``None`` disables fading.
        wall_oracle: callable returning the wall loss in dB along rays
            between arrays of positions (see :data:`WallOracle`);
            ``None`` means free space (no walls).
        collision_loss_prob: probability a given advertisement is lost
            to co-channel collisions / scanner duty-cycle misses,
            independent of the device's own stack bugs.
        seed: master seed for the shadowing fields.
    """

    def __init__(
        self,
        path_loss: Optional[LogDistancePathLoss] = None,
        *,
        shadowing_sigma_db: float = 3.0,
        shadowing_correlation_m: float = 2.0,
        fading: Optional[RicianFading] = RicianFading(k_factor=6.0),
        wall_oracle: Optional[WallOracle] = None,
        collision_loss_prob: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= collision_loss_prob <= 1.0:
            raise ValueError(
                f"collision_loss_prob must be a probability, got {collision_loss_prob}"
            )
        self.path_loss = path_loss if path_loss is not None else LogDistancePathLoss()
        self.shadowing_sigma_db = shadowing_sigma_db
        self.shadowing_correlation_m = shadowing_correlation_m
        self.fading = fading
        self.wall_oracle = wall_oracle
        self.collision_loss_prob = collision_loss_prob
        self.seed = seed
        self._shadow_fields: dict = {}

    def _shadow_field(self, tx_id: str) -> ShadowingField:
        if tx_id not in self._shadow_fields:
            self._shadow_fields[tx_id] = ShadowingField(
                sigma_db=self.shadowing_sigma_db,
                correlation_distance_m=self.shadowing_correlation_m,
                link_seed=derive_seed(self.seed, f"shadow-field:{tx_id}"),
            )
        return self._shadow_fields[tx_id]

    def shadowing_db(
        self, tx_ids: Sequence[str], rx_x: np.ndarray, rx_y: np.ndarray
    ) -> np.ndarray:
        """Shadowing of every sample in one gather over the fields used.

        ``tx_ids`` names the transmitter of each sample along the last
        axis of the receiver coordinates ``rx_x``/``rx_y``, which may
        carry leading axes (one row per device).  Each value equals the
        transmitter field's scalar :meth:`ShadowingField.sample`.
        """
        used = list(dict.fromkeys(tx_ids))  # unique, first-seen order
        slot = {tx_id: k for k, tx_id in enumerate(used)}
        which = np.fromiter(
            map(slot.__getitem__, tx_ids), dtype=np.intp, count=len(tx_ids)
        )
        fields = [self._shadow_field(tx_id) for tx_id in used]
        return sample_fields(fields, which, rx_x, rx_y)

    def seed_free_parts(
        self,
        tx_ids: Sequence[str],
        tx_xy: np.ndarray,
        rx_xy: np.ndarray,
        tx_powers_dbm: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The budget components that consume no random stream.

        ``tx_xy`` has shape ``(n, 2)`` and ``tx_powers_dbm`` ``(n,)``;
        ``rx_xy`` has shape ``(..., n, 2)``, where leading axes carry
        one receiver each (the columnar drive passes ``(devices, n, 2)``).

        Returns:
            ``(distance_m, path_loss_db, wall_loss_db, shadowing_db)``,
            each of ``rx_xy``'s shape minus the last axis (shadowing is
            deterministic per position).
        """
        rx_x, rx_y = rx_xy[..., 0], rx_xy[..., 1]
        distance = np.hypot(rx_x - tx_xy[:, 0], rx_y - tx_xy[:, 1])
        mean_rssi = self.path_loss.rssi(np.maximum(distance, 1e-6), tx_powers_dbm)
        path_loss = tx_powers_dbm - mean_rssi
        walls = (
            self.wall_oracle(tx_xy, rx_xy)
            if self.wall_oracle is not None
            else np.zeros(distance.shape)
        )
        return distance, path_loss, walls, self.shadowing_db(tx_ids, rx_x, rx_y)

    def draw_rssi(
        self,
        tx_powers_dbm: np.ndarray,
        path_loss_db: np.ndarray,
        wall_loss_db: np.ndarray,
        shadowing_db: np.ndarray,
        device: DeviceRadioProfile,
        rngs: Sequence[np.random.Generator],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Random draws over a ``(rows, n)`` block of seed-free budgets.

        Each row is one receiver of profile ``device`` with its own
        stream ``rngs[row]``, consumed row by row in a fixed order: the
        fading model's standard normals (``normals_per_sample`` per
        sample, read by its ``envelope_db``), the ``n`` noise draws,
        then ``n`` collision uniforms and ``n`` stack-loss uniforms
        (each only where the channel or ``device`` has that
        impairment).  Loss uniforms are drawn for every
        sample, not only the ones above sensitivity, which keeps stream
        consumption a function of ``n`` alone.  The fading dB, raw
        budget, quantisation and reception then run once on the block.
        ``tx_powers_dbm`` has shape ``(n,)``.

        Returns:
            ``(fading_db, noise_db, rssi, received)``, each of shape
            ``(rows, n)``.
        """
        rows, n = path_loss_db.shape
        fading = self.fading
        sigma = device.rssi_noise_db
        collision = self.collision_loss_prob
        stack_loss = device.extra_loss_prob
        n_fade = fading.normals_per_sample * n if fading is not None else 0
        n_normal = n_fade + (n if sigma > 0.0 else 0)
        n_uniform = (n if collision > 0.0 else 0) + (n if stack_loss > 0.0 else 0)
        # Row by row: the normals, then the uniforms after them.
        draws = np.empty((rows, n_normal + n_uniform))
        for row, rng in enumerate(rngs):
            if n_normal:
                rng.standard_normal(out=draws[row, :n_normal])
            if n_uniform:
                rng.random(out=draws[row, n_normal:])
        fade = (
            fading.envelope_db(draws[:, :n_fade])
            if fading is not None
            else np.zeros((rows, n))
        )
        if sigma > 0.0:
            # ``Generator.normal(0, sigma)`` returns ``0.0 + sigma * z``,
            # which turns a -0.0 into +0.0.
            noise = sigma * draws[:, n_fade:n_normal]
            noise += 0.0
        else:
            noise = np.zeros((rows, n))
        # tx - path loss - walls + shadowing + fading + gain + noise,
        # left to right, in place.
        raw = tx_powers_dbm - path_loss_db
        raw -= wall_loss_db
        raw += shadowing_db
        raw += fade
        raw += device.rx_gain_db
        raw += noise
        rssi = device.quantise(raw)
        received = rssi >= device.sensitivity_dbm
        if collision > 0.0:
            received &= draws[:, n_normal : n_normal + n] >= collision
        if stack_loss > 0.0:
            received &= draws[:, n_normal + n_uniform - n :] >= stack_loss
        return fade, noise, rssi, received

    def link_budget_many(
        self,
        tx_ids: Sequence[str],
        tx_positions: Sequence[Position],
        rx_positions: Sequence[Position],
        tx_powers_dbm: Sequence[float],
        device: DeviceRadioProfile,
        rng: np.random.Generator,
    ) -> LinkBudgetBatch:
        """Link budgets for a whole scan's worth of samples.

        One :meth:`seed_free_parts` pass and one :meth:`draw_rssi` pass
        over all ``n`` samples, instead of ``n`` Python-level calls;
        this is the hot path of every scan cycle.

        Args:
            tx_ids: transmitter id per sample (shadowing-field key).
            tx_positions: transmitter position per sample.
            rx_positions: receiver position per sample.
            tx_powers_dbm: effective radiated power per sample.
            device: receiver radio profile (shared by the batch —
                one phone scans at a time).
            rng: random stream for fading/noise/loss draws.
        """
        with profiling.measure("radio.link_budget_many"):
            n = len(tx_ids)
            tx_xy = np.asarray(tx_positions, dtype=float).reshape(n, 2)
            rx_xy = np.asarray(rx_positions, dtype=float).reshape(n, 2)
            tx_powers = np.asarray(tx_powers_dbm, dtype=float)
            distance, path_loss, walls, shadow = self.seed_free_parts(
                tx_ids, tx_xy, rx_xy, tx_powers
            )
            fade, noise, rssi, received = self.draw_rssi(
                tx_powers,
                path_loss[None],
                walls[None],
                shadow[None],
                device,
                (rng,),
            )
            return LinkBudgetBatch(
                distance_m=distance,
                tx_power_dbm=tx_powers,
                path_loss_db=path_loss,
                wall_loss_db=walls,
                shadowing_db=shadow,
                fading_db=fade[0],
                rx_gain_db=device.rx_gain_db,
                noise_db=noise[0],
                rssi=rssi[0],
                received=received[0],
            )
