"""Log-distance path loss and its inversion.

The iBeacon ranging procedure (paper Section III) relies on the mean
received power decaying predictably with distance.  With the calibrated
power ``P1`` at 1 m (the packet's TX power field) and exponent ``n``:

    RSSI(d) = P1 - 10 * n * log10(d)

and the inverse, used by the Ranging Service to estimate distance:

    d(RSSI) = 10 ** ((P1 - RSSI) / (10 * n))

Typical indoor 2.4 GHz exponents are 1.6-1.8 line-of-sight in a
corridor and 2.5-4 through obstructions; the default 2.2 matches a
lightly furnished residential room (the paper's test house).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["LogDistancePathLoss", "rssi_from_distance", "distance_from_rssi"]

ArrayLike = Union[float, np.ndarray]

#: Below this separation the far-field model is invalid; distances are clamped.
MIN_DISTANCE_M = 0.1

#: Cap on inverted distance estimates, mirroring the Radius Networks
#: library's practice of treating far/weak beacons as "far" rather than
#: returning unbounded estimates.
MAX_ESTIMATED_DISTANCE_M = 80.0


def rssi_from_distance(
    distance_m: ArrayLike, tx_power_dbm: float, exponent: float
) -> ArrayLike:
    """Mean RSSI in dBm at ``distance_m`` metres from the transmitter.

    ``tx_power_dbm`` is the calibrated 1 m power (the iBeacon TX power
    field), not the radiated power.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M)
    rssi = tx_power_dbm - 10.0 * exponent * np.log10(d)
    if np.isscalar(distance_m):
        return float(rssi)
    return rssi


def distance_from_rssi(
    rssi_dbm: ArrayLike, tx_power_dbm: ArrayLike, exponent: float
) -> ArrayLike:
    """Invert the path-loss model to an estimated distance in metres.

    This is the textbook estimator the Ranging Service applies to each
    smoothed RSSI value; the columnar fleet drive passes one device's
    row of values with the matching column of TX powers.  Estimates are
    clamped to ``[MIN_DISTANCE_M, MAX_ESTIMATED_DISTANCE_M]``.
    """
    if exponent <= 0.0:
        raise ValueError(f"path-loss exponent must be positive, got {exponent}")
    rssi = np.asarray(rssi_dbm, dtype=float)
    d = np.power(10.0, (tx_power_dbm - rssi) / (10.0 * exponent))
    d = np.clip(d, MIN_DISTANCE_M, MAX_ESTIMATED_DISTANCE_M)
    if np.isscalar(rssi_dbm):
        return float(d)
    return d


@dataclass(frozen=True)
class LogDistancePathLoss:
    """A configured log-distance path-loss model.

    Attributes:
        exponent: path-loss exponent ``n`` (must be positive).
        reference_distance_m: distance at which ``tx_power`` is defined
            (1 m for iBeacon).
    """

    exponent: float = 2.2
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent <= 0.0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")
        if self.reference_distance_m <= 0.0:
            raise ValueError(
                f"reference distance must be positive, got {self.reference_distance_m}"
            )

    def rssi(self, distance_m: ArrayLike, tx_power_dbm: float) -> ArrayLike:
        """Mean RSSI at ``distance_m`` for a beacon calibrated to
        ``tx_power_dbm`` at the reference distance."""
        d = np.maximum(
            np.asarray(distance_m, dtype=float) / self.reference_distance_m,
            MIN_DISTANCE_M,
        )
        rssi = tx_power_dbm - 10.0 * self.exponent * np.log10(d)
        if np.isscalar(distance_m):
            return float(rssi)
        return rssi

    def distance(self, rssi_dbm: ArrayLike, tx_power_dbm: float) -> ArrayLike:
        """Inverted distance estimate for a measured ``rssi_dbm``."""
        return distance_from_rssi(rssi_dbm, tx_power_dbm, self.exponent)
