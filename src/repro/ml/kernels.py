"""Kernel functions for the SVM.

All kernels implement ``__call__(X, Y) -> K`` where ``X`` is (n, d),
``Y`` is (m, d) and ``K`` is the (n, m) Gram matrix.  Distance-based
kernels additionally support precomputed row squared norms through
:meth:`Kernel.gram`, so a fitted SVM can cache its support vectors'
norms once and reuse them on every prediction batch.  Each kernel's
arithmetic lives in :meth:`Kernel.gram_2d`, which takes its arrays as
given; ``__call__`` and ``gram`` check and convert them first.

Every kernel here is *slice-stable*: the Gram of any row subset equals
the corresponding submatrix of the full Gram bit for bit.  The
training-side Gram cache (``repro.ml.gram_cache``) depends on this to
hand out sliced views that are byte-identical to a direct computation,
which in turn keeps SMO trajectories — and therefore fitted models —
unchanged whether or not the cache is used.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Kernel",
    "LinearKernel",
    "PolynomialKernel",
    "RbfKernel",
    "stable_dot",
]


def stable_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X @ Y.T`` computed so each element is independent of the shapes.

    BLAS ``dgemm`` picks blocking and SIMD micro-kernels by matrix
    dimensions, so ``(X @ X.T)[ix]`` and ``X[rows] @ X[rows].T`` can
    differ in the last bits — enough to send an SMO trajectory down a
    different path.  ``np.einsum`` (unoptimised) reduces over the
    feature axis per output element in a fixed order, making every
    entry a pure function of its own two rows; submatrix slicing is
    then bit-identical to direct computation.  Feature dimensions in
    the fingerprint workloads are small, so the BLAS throughput loss
    is negligible next to the reuse it unlocks.
    """
    return np.einsum("ik,jk->ij", X, Y)


class Kernel(abc.ABC):
    """A positive-semidefinite kernel function."""

    def __call__(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Gram matrix between rows of ``X`` and rows of ``Y``."""
        return self.gram(X, Y)

    def row_sq_norms(self, X: np.ndarray) -> Optional[np.ndarray]:
        """Per-row squared norms when this kernel can reuse them.

        Returns ``None`` for kernels whose Gram computation does not
        involve squared distances (nothing worth caching).
        """
        return None

    def gram(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        *,
        x_sq: Optional[np.ndarray] = None,
        y_sq: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gram matrix, optionally reusing precomputed squared norms.

        ``x_sq``/``y_sq`` must be the arrays :meth:`row_sq_norms`
        returned for the same ``X``/``Y``; kernels that do not cache
        norms ignore them.  The result is numerically identical to
        ``self(X, Y)``.
        """
        return self.gram_2d(self._as_2d(X), self._as_2d(Y), x_sq, y_sq)

    @abc.abstractmethod
    def gram_2d(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        x_sq: Optional[np.ndarray],
        y_sq: Optional[np.ndarray],
    ) -> np.ndarray:
        """:meth:`gram` of two 2-D float arrays, taken as they are.

        Nothing is converted or checked: the caller vouches for the
        arrays and for the norms (:meth:`row_sq_norms` of the same
        rows, or ``None``).  A fitted support-vector bank calls it with
        the vectors and norms it built once at fit.
        """

    @staticmethod
    def _as_2d(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ValueError(f"kernel input must be 2-D, got shape {X.shape}")
        return X


@dataclass(frozen=True)
class LinearKernel(Kernel):
    """K(x, y) = x . y"""

    def gram_2d(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        x_sq: Optional[np.ndarray],
        y_sq: Optional[np.ndarray],
    ) -> np.ndarray:
        return stable_dot(X, Y)


@dataclass(frozen=True)
class PolynomialKernel(Kernel):
    """K(x, y) = (gamma * x . y + coef0) ** degree"""

    degree: int = 3
    gamma: float = 1.0
    coef0: float = 1.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def gram_2d(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        x_sq: Optional[np.ndarray],
        y_sq: Optional[np.ndarray],
    ) -> np.ndarray:
        return (self.gamma * stable_dot(X, Y) + self.coef0) ** self.degree


@dataclass(frozen=True)
class RbfKernel(Kernel):
    """K(x, y) = exp(-gamma * ||x - y||^2)

    The kernel the paper uses ("Support Vector Machines with the Radial
    Basis Function kernel, as suggested by [Redpin]").
    """

    gamma: float = 0.5

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def row_sq_norms(self, X: np.ndarray) -> np.ndarray:
        return _sq_norms(self._as_2d(X))

    def gram_2d(
        self,
        X: np.ndarray,
        Y: np.ndarray,
        x_sq: Optional[np.ndarray],
        y_sq: Optional[np.ndarray],
    ) -> np.ndarray:
        # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, computed blockwise.
        if x_sq is None:
            x_sq = _sq_norms(X)
        if y_sq is None:
            y_sq = _sq_norms(Y)
        sq_dist = np.maximum(
            x_sq[:, None] + y_sq[None, :] - 2.0 * stable_dot(X, Y), 0.0
        )
        return np.exp(-self.gamma * sq_dist)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Each row's squared norm (``np.sum(X * X, axis=1)``'s reduction)."""
    return np.add.reduce(X * X, axis=1)
