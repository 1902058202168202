"""Spatially correlated log-normal shadowing.

Obstructions (furniture, people, walls not explicitly modelled) impose
a slowly varying dB-scale offset on top of path loss.  The classic
model is zero-mean Gaussian shadowing with standard deviation sigma and
exponential spatial autocorrelation (Gudmundson's model):

    rho(delta_x) = exp(-|delta_x| / d_corr)

We evaluate the field lazily on a grid of seeded cells so that a given
(position, link) pair always sees the same shadowing value - a static
phone therefore sees a *constant* shadowing offset, with only fast
fading and sampling noise varying scan to scan, which is what the
paper's static traces (Figs 4-6) show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.sim.rng import derive_seed

__all__ = ["ShadowingField", "sample_fields"]


@dataclass
class ShadowingField:
    """Deterministic spatial shadowing field for one transmitter.

    Each transmitter gets its own field (keyed by ``link_seed``).  The
    plane is divided into square cells of ``correlation_distance_m``;
    each cell's value is drawn from N(0, sigma^2) using a seed derived
    from the cell coordinates, and bilinear interpolation between cell
    centres yields a continuous field with approximately the desired
    correlation length.

    Attributes:
        sigma_db: shadowing standard deviation in dB.
        correlation_distance_m: Gudmundson correlation distance.
        link_seed: seed namespace for this transmitter's field.
    """

    sigma_db: float = 3.0
    correlation_distance_m: float = 2.0
    link_seed: int = 0
    _cells: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db}")
        if self.correlation_distance_m <= 0.0:
            raise ValueError(
                "correlation_distance_m must be positive, got "
                f"{self.correlation_distance_m}"
            )

    def _cell_value(self, ix: int, iy: int) -> float:
        key = (ix, iy)
        value = self._cells.get(key)
        if value is None:
            seed = derive_seed(self.link_seed, f"shadow:{ix}:{iy}")
            rng = np.random.default_rng(seed)
            value = self._cells[key] = float(rng.normal(0.0, self.sigma_db))
        return value

    def sample(self, x: float, y: float) -> float:
        """Shadowing offset in dB at position ``(x, y)`` metres.

        Deterministic: the same position always yields the same offset.
        """
        if self.sigma_db == 0.0:
            return 0.0
        gx = x / self.correlation_distance_m
        gy = y / self.correlation_distance_m
        ix, iy = int(np.floor(gx)), int(np.floor(gy))
        fx, fy = gx - ix, gy - iy
        v00 = self._cell_value(ix, iy)
        v10 = self._cell_value(ix + 1, iy)
        v01 = self._cell_value(ix, iy + 1)
        v11 = self._cell_value(ix + 1, iy + 1)
        top = v00 * (1 - fx) + v10 * fx
        bottom = v01 * (1 - fx) + v11 * fx
        return top * (1 - fy) + bottom * fy

    def sample_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sample` over arrays of positions.

        The one-field call of :func:`sample_fields`, so
        ``sample_many(xs, ys)[i] == sample(xs[i], ys[i])`` exactly.
        """
        return sample_fields([self], 0, xs, ys)


def sample_fields(
    fields: Sequence[ShadowingField],
    which: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Shadowing of many fields at many positions, in one gather.

    Sample ``i`` reads ``fields[which[i]]`` at ``(xs[i], ys[i])``;
    ``which`` broadcasts against the positions, so one transmitter
    index per advertisement serves a ``(devices, advertisements)``
    block.  Every corner comes from one table indexed by field, x-cell
    and y-cell over the cells the query spans (positions cluster within
    a building, so it is small); only cells that are some sample's
    corner are filled, each from that field's seeded cache.  The
    bilinear expressions are :meth:`ShadowingField.sample`'s, so each
    value equals it exactly.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros(xs.shape)
    if xs.size == 0:
        return out
    which = np.broadcast_to(np.asarray(which, dtype=np.intp), xs.shape)
    sigma = np.array([f.sigma_db for f in fields], dtype=float)
    live = sigma[which] != 0.0
    if not live.any():
        return out
    slot = which[live]
    corr = np.array([f.correlation_distance_m for f in fields], dtype=float)[slot]
    gx = xs[live] / corr
    gy = ys[live] / corr
    ix = np.floor(gx).astype(int)
    iy = np.floor(gy).astype(int)
    fx, fy = gx - ix, gy - iy
    x0, y0 = int(ix.min()), int(iy.min())
    lx, ly = ix - x0, iy - y0
    nx = int(lx.max()) + 2
    ny = int(ly.max()) + 2
    cell = (slot * nx + lx) * ny + ly  # flat table index of each (ix, iy) corner
    used = np.zeros(len(fields) * nx * ny, dtype=bool)
    for offset in (0, 1, ny, ny + 1):
        used[cell + offset] = True
    corners = np.flatnonzero(used)
    field_k, rest = np.divmod(corners, nx * ny)
    table = np.zeros(used.shape)
    table[corners] = [
        fields[k]._cell_value(cx, cy)
        for k, cx, cy in zip(
            field_k.tolist(), (x0 + rest // ny).tolist(), (y0 + rest % ny).tolist()
        )
    ]
    v00 = table[cell]
    v10 = table[cell + ny]
    v01 = table[cell + 1]
    v11 = table[cell + ny + 1]
    top = v00 * (1 - fx) + v10 * fx
    bottom = v01 * (1 - fx) + v11 * fx
    out[live] = top * (1 - fy) + bottom * fy
    return out
