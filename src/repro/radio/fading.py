"""Fast (multipath) fading models.

Scan-to-scan RSSI fluctuation at a *static* position - the large
variability the paper shows in Figure 4 - is dominated by multipath
fading plus receiver quantisation.  Indoors with a line-of-sight
component the envelope is Rician; fully obstructed links degrade to
Rayleigh (Rician with K = 0).

Both models return a dB-scale correction: ``20*log10(envelope)`` where
the envelope has unit mean power, so the correction has (close to)
zero mean in the linear power domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = ["RicianFading", "RayleighFading"]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RicianFading:
    """Rician fading with factor K (linear, not dB).

    K is the ratio of line-of-sight power to scattered power.  K around
    4-12 is typical for same-room BLE links; K = 0 gives Rayleigh.
    The sample is generated as the envelope of a complex Gaussian with
    a deterministic LoS component, normalised to unit mean power.
    """

    k_factor: float = 6.0

    #: Standard normals one sample reads from the stream: the real and
    #: the imaginary part of its scatter.
    normals_per_sample: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if self.k_factor < 0.0:
            raise ValueError(f"K factor must be >= 0, got {self.k_factor}")
        k = self.k_factor
        # Complex channel h = sqrt(K/(K+1)) + sqrt(1/(K+1)) * CN(0,1).
        object.__setattr__(self, "_los", np.sqrt(k / (k + 1.0)))
        object.__setattr__(self, "_scatter_gain", np.sqrt(1.0 / (k + 1.0)))

    def sample_db(self, rng: np.random.Generator, size: int = None):
        """Draw fading corrections in dB (zero mean in linear power).

        Draws :attr:`normals_per_sample` standard normals per sample
        and hands them to :meth:`envelope_db`.

        Args:
            rng: the random stream to draw from.
            size: ``None`` for a scalar, else the number of samples.
        """
        n = 1 if size is None else int(size)
        db = self.envelope_db(rng.standard_normal(self.normals_per_sample * n))
        if size is None:
            return float(db[0])
        return db

    def envelope_db(self, normals: np.ndarray) -> np.ndarray:
        """Fading corrections in dB from a block of standard normals.

        ``normals`` has shape ``(..., 2 * n)``: along its last axis the
        ``n`` scatter real parts, then the ``n`` imaginary parts, as one
        stream yields them (the channel passes a ``(receivers, 2 * n)``
        block, each row from its receiver's stream).  Returns the
        ``(..., n)`` values ``10 log10(max(|h|**2, 1e-12))`` with
        ``h = los + gain * (real + 1j * imag) / sqrt(2)``; the steps run
        in place, which changes at most the sign of a zero component
        and so never the envelope.
        """
        n = normals.shape[-1] // 2
        h = np.empty(normals.shape[:-1] + (n,), dtype=complex)
        h.real = normals[..., :n]
        h.imag = normals[..., n:]
        h /= _SQRT2
        h *= self._scatter_gain
        h += self._los
        power = np.abs(h)
        power **= 2
        np.maximum(power, 1e-12, out=power)
        np.log10(power, out=power)
        power *= 10.0
        return power


@dataclass(frozen=True)
class RayleighFading:
    """Rayleigh fading (no line-of-sight component)."""

    #: As :attr:`RicianFading.normals_per_sample`.
    normals_per_sample: ClassVar[int] = 2

    def sample_db(self, rng: np.random.Generator, size: int = None):
        """Draw fading corrections in dB for a fully scattered link."""
        return RicianFading(k_factor=0.0).sample_db(rng, size=size)

    def envelope_db(self, normals: np.ndarray) -> np.ndarray:
        """:meth:`RicianFading.envelope_db` with K = 0."""
        return RicianFading(k_factor=0.0).envelope_db(normals)
