"""The per-sample link budget: the oracle for the channel's batch path.

:meth:`repro.radio.channel.ChannelModel.link_budget_many` draws a whole
window in two array passes, ``seed_free_parts`` and ``draw_rssi``, which
both fleet drives call.  This module keeps the budget as it reads for
one advertisement, in scalar arithmetic: distance, path loss, walls and
shadowing from the channel's own models, then fading, noise,
quantisation and the loss draws, with a loss uniform drawn only while
the sample is still received.

The seed-free components of a batch equal this module's exactly; with
every random impairment disabled the whole budget does.
:func:`budgets` expands a batch into the same rows for comparison.

:func:`draw_one_receiver` keeps one receiver's random draws over its
window as they read with one generator call per component, the order
``ChannelModel.draw_rssi`` consumes each row's stream in.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["LinkBudget", "budgets", "draw_one_receiver", "link_budget"]

Position = Tuple[float, float]


@dataclass(frozen=True)
class LinkBudget:
    """Decomposition of one RSSI sample, in dB / dBm.

    ``rssi`` is the final quantised value, ``received`` is False when
    the sample was lost (below sensitivity or dropped); a lost sample
    still carries its budget for analysis.
    """

    distance_m: float
    tx_power_dbm: float
    path_loss_db: float
    wall_loss_db: float
    shadowing_db: float
    fading_db: float
    rx_gain_db: float
    noise_db: float
    rssi: float
    received: bool


def budgets(batch) -> List[LinkBudget]:
    """Per-sample :class:`LinkBudget` rows of a ``LinkBudgetBatch``."""
    return [
        LinkBudget(
            distance_m=float(batch.distance_m[i]),
            tx_power_dbm=float(batch.tx_power_dbm[i]),
            path_loss_db=float(batch.path_loss_db[i]),
            wall_loss_db=float(batch.wall_loss_db[i]),
            shadowing_db=float(batch.shadowing_db[i]),
            fading_db=float(batch.fading_db[i]),
            rx_gain_db=batch.rx_gain_db,
            noise_db=float(batch.noise_db[i]),
            rssi=float(batch.rssi[i]),
            received=bool(batch.received[i]),
        )
        for i in range(len(batch))
    ]


def link_budget(
    channel,
    tx_id: str,
    tx_pos: Position,
    rx_pos: Position,
    tx_power_dbm: float,
    device,
    rng: np.random.Generator,
) -> LinkBudget:
    """Draw one RSSI sample through ``channel`` and decompose it."""
    dx = rx_pos[0] - tx_pos[0]
    dy = rx_pos[1] - tx_pos[1]
    distance = float(np.hypot(dx, dy))
    mean_rssi = channel.path_loss.rssi(max(distance, 1e-6), tx_power_dbm)
    path_loss = tx_power_dbm - mean_rssi
    walls = 0.0
    if channel.wall_oracle is not None:
        walls = float(
            channel.wall_oracle(
                np.asarray(tx_pos, dtype=float), np.asarray(rx_pos, dtype=float)
            )
        )
    shadow = channel._shadow_field(tx_id).sample(rx_pos[0], rx_pos[1])
    fade = channel.fading.sample_db(rng) if channel.fading is not None else 0.0
    noise = (
        float(rng.normal(0.0, device.rssi_noise_db))
        if device.rssi_noise_db > 0.0
        else 0.0
    )

    raw = (
        tx_power_dbm
        - path_loss
        - walls
        + shadow
        + fade
        + device.rx_gain_db
        + noise
    )
    rssi = device.quantise(raw)

    received = rssi >= device.sensitivity_dbm
    if received and channel.collision_loss_prob > 0.0:
        received = rng.random() >= channel.collision_loss_prob
    if received and device.extra_loss_prob > 0.0:
        received = rng.random() >= device.extra_loss_prob

    return LinkBudget(
        distance_m=distance,
        tx_power_dbm=tx_power_dbm,
        path_loss_db=path_loss,
        wall_loss_db=walls,
        shadowing_db=shadow,
        fading_db=fade,
        rx_gain_db=device.rx_gain_db,
        noise_db=noise,
        rssi=rssi,
        received=received,
    )


def draw_one_receiver(
    channel, tx_powers_dbm, path_loss_db, wall_loss_db, shadowing_db, device, rng
):
    """One receiver's ``(fading, noise, rssi, received)`` over ``n`` budgets.

    The stream is read one component at a time: ``n`` fading samples
    (the fading model's ``sample_db``), ``n`` noise draws, ``n``
    collision uniforms, then ``n`` stack-loss uniforms, each only where
    the channel or the device has that impairment.
    """
    n = len(tx_powers_dbm)
    fade = (
        channel.fading.sample_db(rng, size=n)
        if channel.fading is not None
        else np.zeros(n)
    )
    noise = (
        rng.normal(0.0, device.rssi_noise_db, size=n)
        if device.rssi_noise_db > 0.0
        else np.zeros(n)
    )
    raw = (
        tx_powers_dbm
        - path_loss_db
        - wall_loss_db
        + shadowing_db
        + fade
        + device.rx_gain_db
        + noise
    )
    rssi = device.quantise(raw)
    received = rssi >= device.sensitivity_dbm
    if channel.collision_loss_prob > 0.0:
        received &= rng.random(size=n) >= channel.collision_loss_prob
    if device.extra_loss_prob > 0.0:
        received &= rng.random(size=n) >= device.extra_loss_prob
    return fade, noise, rssi, received
