"""Support vector machine trained with sequential minimal optimisation.

A from-scratch soft-margin SVM:

- :class:`BinarySVM` solves the dual problem with Platt's SMO
  algorithm (two-heuristic working-set selection, error cache);
- :class:`SupportVectorClassifier` lifts it to multiclass with
  one-vs-one voting, the same scheme libsvm (and hence the paper's
  scikit-learn SVC) uses.

The default kernel is RBF, the paper's choice for the Scene Analysis
classifier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml import gram_cache
from repro.ml.kernels import Kernel, RbfKernel, stable_dot
from repro.obs import profiling

__all__ = ["BinarySVM", "SupportVectorBank", "SupportVectorClassifier"]

#: Rows per block of :meth:`SupportVectorClassifier.predict`: one
#: ``(block × bank)`` Gram and vote at a time, which measured faster
#: than one pass over a large batch.
PREDICT_BLOCK = 256


class BinarySVM:
    """Soft-margin binary SVM (labels -1/+1) trained by SMO.

    Args:
        c: regularisation parameter (box constraint); larger C fits
            the training data harder.
        kernel: kernel function; default RBF(gamma=0.5).
        tol: KKT violation tolerance.
        max_passes: stop after this many full passes without updates.
        max_iter: hard cap on examine steps, a safety valve.
        seed: RNG seed for the random tie-breaking in SMO.
    """

    def __init__(
        self,
        c: float = 1.0,
        kernel: Optional[Kernel] = None,
        *,
        tol: float = 1e-3,
        max_passes: int = 3,
        max_iter: int = 200_000,
        seed: int = 0,
    ) -> None:
        if c <= 0.0:
            raise ValueError(f"C must be positive, got {c}")
        if tol <= 0.0:
            raise ValueError(f"tol must be positive, got {tol}")
        self.c = float(c)
        self.kernel = kernel if kernel is not None else RbfKernel()
        self.tol = float(tol)
        self.max_passes = int(max_passes)
        self.max_iter = int(max_iter)
        self.seed = seed
        self._fitted = False

    # ------------------------------------------------------------------
    # Training (Platt SMO)
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        gram: Optional[np.ndarray] = None,
    ) -> "BinarySVM":
        """Train on ``X`` (n, d) with labels ``y`` in {-1, +1}.

        Args:
            X: feature matrix.
            y: labels in {-1, +1}.
            gram: precomputed ``self.kernel(X, X)`` — typically a
                submatrix sliced out of a shared full-dataset Gram
                (see :mod:`repro.ml.gram_cache`).  Must be the
                (symmetric) Gram of ``X`` under ``self.kernel``; the
                solver only reads it, so a read-only cached array is
                accepted.  Because all kernels here are slice-stable,
                fitting with a sliced Gram is byte-identical to
                fitting without one.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        labels = set(np.unique(y).tolist())
        if not labels <= {-1.0, 1.0}:
            raise ValueError(f"labels must be -1/+1, got {sorted(labels)}")
        if len(labels) < 2:
            raise ValueError("training data contains a single class")

        n = X.shape[0]
        self._y = y
        if gram is not None:
            gram = np.asarray(gram, dtype=float)
            if gram.shape != (n, n):
                raise ValueError(
                    f"gram must have shape {(n, n)}, got {gram.shape}"
                )
            self._K = gram
        else:
            self._K = self.kernel(X, X)
        # The diagonal is read on every optimisation step; a contiguous
        # copy avoids the strided diagonal gather in the hot loop.
        self._K_diag = np.ascontiguousarray(self._K.diagonal())
        self._alpha = np.zeros(n)
        # alpha_i * y_i, maintained incrementally as steps are taken.
        self._ay = self._alpha * y
        # Scratch buffers for the per-step error-cache update.
        self._ebuf = np.empty(n)
        self._ebuf2 = np.empty(n)
        # Non-bound mask (0 < alpha < c), maintained incrementally in
        # _take_step: alphas only move there, two entries at a time.
        self._nb_mask = np.zeros(n, dtype=bool)
        self._b = 0.0
        # Error cache: E_i = f(x_i) - y_i.  With alpha = 0, f = b = 0.
        self._errors = -y.copy()
        self._rng = np.random.default_rng(self.seed)

        iterations = 0
        examine_all = True
        passes_without_change = 0
        with profiling.measure("ml.svm.smo_fit"):
            while (
                passes_without_change < self.max_passes
                and iterations < self.max_iter
            ):
                if examine_all:
                    indices = np.arange(n)
                else:
                    indices = self._nb_mask.nonzero()[0]
                changed, iterations = self._scan(indices, iterations)
                if examine_all:
                    examine_all = False
                    if changed == 0:
                        passes_without_change += 1
                    else:
                        passes_without_change = 0
                elif changed == 0:
                    examine_all = True

        sv_mask = self._alpha > 1e-8
        self.support_vectors_ = X[sv_mask]
        self.support_indices_ = np.flatnonzero(sv_mask)
        self.dual_coef_ = (self._alpha * y)[sv_mask]
        self.intercept_ = self._b
        self.n_support_ = int(np.count_nonzero(sv_mask))
        # Cache the support vectors' squared norms once: every RBF-like
        # Gram evaluation at predict time reuses them instead of
        # recomputing per call (None for norm-free kernels).
        self._sv_sq_norms = self.kernel.row_sq_norms(self.support_vectors_)
        self._fitted = True
        # Free the training caches.
        del self._y, self._K, self._K_diag, self._ay, self._errors
        del self._ebuf, self._ebuf2, self._nb_mask
        return self

    #: Fruitless examines tolerated before :meth:`_scan` switches
    #: from the scalar walk to a vectorised jump over non-violators.
    _SCAN_RUN = 16

    def _scan(
        self, indices: np.ndarray, iterations: int
    ) -> Tuple[int, int]:
        """One working-set pass: examine each of ``indices`` in order.

        The KKT check at the top of :meth:`_examine` is side-effect-
        free (no state mutation, no RNG draw), so a non-violating
        index contributes nothing but its examine count — skipping it
        is invisible to the optimisation trajectory.  The scan walks
        indices one examine at a time while steps are landing, but
        after :attr:`_SCAN_RUN` consecutive fruitless examines (the
        signature of a converged region, where whole passes are
        non-violators) it evaluates the violation mask over the
        remaining tail in one vector operation and jumps straight to
        the next violator.  The mask is used immediately after it is
        computed, with no intervening state change, so every skipped
        index is one a plain per-index loop would also have no-opped;
        skipped indices are counted against ``max_iter`` exactly as
        such a loop counts them.
        """
        changed = 0
        m = len(indices)
        pos = 0  # invariant: `iterations` accounts for indices[:pos]
        fruitless = 0
        # Violator positions computed by the last vector scan.  They
        # stay valid until a step lands (examines and cascades that
        # fail mutate nothing), letting the scan hop violator to
        # violator instead of re-walking or re-scanning in between.
        viol: Optional[np.ndarray] = None
        vp = 0
        alpha, errors, y = self._alpha, self._errors, self._y
        tol, c = self.tol, self.c
        while pos < m and iterations < self.max_iter:
            if viol is not None or fruitless >= self._SCAN_RUN:
                if viol is None:
                    tail = indices[pos:]
                    r = errors[tail] * y[tail]
                    a = alpha[tail]
                    violating = ((r < -tol) & (a < c)) | (
                        (r > tol) & (a > 0.0)
                    )
                    viol = pos + violating.nonzero()[0]
                    vp = 0
                while vp < len(viol) and viol[vp] < pos:
                    vp += 1
                if vp == len(viol):
                    iterations += m - pos
                    pos = m
                    break
                nxt = int(viol[vp])
                iterations += nxt - pos  # consume skipped non-violators
                pos = nxt
                if iterations >= self.max_iter:
                    break
            i = int(indices[pos])
            # Inline KKT pre-check: non-violators are no-ops in
            # _examine, so skip the call (identical outcome, no state
            # or RNG touched either way).
            e2 = errors.item(i)
            r2 = e2 * y.item(i)
            a2 = alpha.item(i)
            if (r2 < -tol and a2 < c) or (r2 > tol and a2 > 0.0):
                result = self._examine(int(i))
            else:
                result = 0
            changed += result
            iterations += 1
            pos += 1
            if result:
                fruitless = 0
                viol = None  # the step moved state; mask is stale
            else:
                fruitless += 1
        return changed, iterations

    def _examine(self, i2: int) -> int:
        """Platt's examineExample: try to improve alpha[i2]."""
        y2 = self._y[i2]
        alpha2 = self._alpha[i2]
        e2 = self._errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and alpha2 < self.c) or (r2 > self.tol and alpha2 > 0)):
            return 0
        non_bound = self._nb_mask.nonzero()[0]
        # Heuristic 1: maximise |E1 - E2| over non-bound examples.
        if len(non_bound) > 1:
            deltas = np.abs(self._errors[non_bound] - e2)
            i1 = int(non_bound[deltas.argmax()])
            if i1 != i2 and self._take_step(i1, i2):
                return 1
        return self._examine_rest_bulk(i2, e2, non_bound)

    def _examine_rest_bulk(
        self, i2: int, e2: float, non_bound: np.ndarray
    ) -> int:
        """Heuristics 2 and 3, known-failing partners skipped in bulk.

        Heuristic 2 tries every non-bound partner in random order,
        heuristic 3 every other index in random order; each stops at
        the first :meth:`_take_step` that lands.  A failing step
        mutates no state, so until that success the solver state is
        frozen and a partner-viability mask computed once up front
        stays valid for the whole cascade.  The mask
        (:meth:`_viable_partners`) replays the exact failure
        conditions of the non-degenerate step, so every skipped index
        is one whose scalar call provably would have returned False;
        the survivors are tried in permutation order, with the RNG
        drawing one permutation per heuristic either way.  Heuristic 3
        also skips the non-bound indices heuristic 2 already proved
        hopeless (its permutation still spans the full index range).
        """
        # Short cascades (a partner found within a few tries) are the
        # common case and the scalar walk is cheapest for them; the
        # mask pays for itself only on long all-failing cascades, so —
        # like the scan — walk scalar first and vectorise the rest.
        perm = self._rng.permutation(non_bound)
        head = perm[: self._SCAN_RUN]
        for i1 in head:
            if i1 != i2 and self._take_step(int(i1), i2):
                return 1
        viable = self._viable_partners(i2, e2)
        tail = perm[self._SCAN_RUN:]
        for i1 in tail[viable[tail]]:
            if self._take_step(int(i1), i2):
                return 1
        is_non_bound = np.zeros(len(self._alpha), dtype=bool)
        is_non_bound[non_bound] = True
        perm = self._rng.permutation(len(self._alpha))
        for i1 in perm[viable[perm] & ~is_non_bound[perm]]:
            if self._take_step(int(i1), i2):
                return 1
        return 0

    def _viable_partners(self, i2: int, e2: float) -> np.ndarray:
        """Mask of partners ``i1`` whose step with ``i2`` might succeed.

        Vectorised replay of :meth:`_take_step`'s early-return checks
        — identical expressions evaluated elementwise, so each entry
        matches the scalar control flow bit for bit: the clip-gap test
        and, on the non-degenerate branch (``eta > 1e-12``), the
        minimum-progress test on the clipped ``a2``.  Degenerate-
        ``eta`` partners keep ``True`` (the objective comparison is
        left to the scalar code), making the mask conservative: it
        never rules out a step a plain scalar loop would have taken.
        """
        alpha = self._alpha
        alpha2 = float(alpha[i2])
        y2 = float(self._y[i2])
        c = self.c
        s = self._y * y2
        total = alpha + alpha2
        low = np.where(
            s > 0,
            np.maximum(0.0, total - c),
            np.maximum(0.0, alpha2 - alpha),
        )
        high = np.where(
            s > 0,
            np.minimum(c, total),
            np.minimum(c, (c + alpha2) - alpha),
        )
        gap_ok = (high - low) >= 1e-12
        K2 = self._K[i2]
        eta = (self._K_diag + float(self._K_diag[i2])) - 2.0 * K2
        nondegenerate = eta > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            a2 = alpha2 + y2 * (self._errors - e2) / eta
        a2 = np.minimum(np.maximum(a2, low), high)
        moved = np.abs(a2 - alpha2) >= 1e-12 * (a2 + alpha2 + 1e-12)
        viable = gap_ok & np.where(nondegenerate, moved, True)
        viable[i2] = False  # the loops never pair an index with itself
        return viable

    def _take_step(self, i1: int, i2: int) -> bool:
        """Jointly optimise alpha[i1], alpha[i2]; True on progress."""
        # Plain-float scalars: bit-identical IEEE arithmetic, without
        # the numpy scalar dispatch overhead in the hot loop.
        alpha1, alpha2 = self._alpha.item(i1), self._alpha.item(i2)
        y1, y2 = self._y.item(i1), self._y.item(i2)
        e1, e2 = self._errors.item(i1), self._errors.item(i2)
        s = y1 * y2
        if s > 0:
            low = max(0.0, alpha1 + alpha2 - self.c)
            high = min(self.c, alpha1 + alpha2)
        else:
            low = max(0.0, alpha2 - alpha1)
            high = min(self.c, self.c + alpha2 - alpha1)
        if high - low < 1e-12:
            return False
        K1, K2 = self._K[i1], self._K[i2]
        k11, k12, k22 = (
            self._K_diag.item(i1),
            K1.item(i2),
            self._K_diag.item(i2),
        )
        eta = k11 + k22 - 2.0 * k12
        if eta > 1e-12:
            a2 = alpha2 + y2 * (e1 - e2) / eta
            a2 = min(max(a2, low), high)
        else:
            # Degenerate kernel direction: evaluate the objective at
            # both clip ends and keep the better one.
            f1 = y1 * (e1 + self._b) - alpha1 * k11 - s * alpha2 * k12
            f2 = y2 * (e2 + self._b) - s * alpha1 * k12 - alpha2 * k22
            l1 = alpha1 + s * (alpha2 - low)
            h1 = alpha1 + s * (alpha2 - high)
            obj_low = (
                l1 * f1 + low * f2 + 0.5 * l1 * l1 * k11
                + 0.5 * low * low * k22 + s * low * l1 * k12
            )
            obj_high = (
                h1 * f1 + high * f2 + 0.5 * h1 * h1 * k11
                + 0.5 * high * high * k22 + s * high * h1 * k12
            )
            if obj_low < obj_high - 1e-12:
                a2 = low
            elif obj_low > obj_high + 1e-12:
                a2 = high
            else:
                return False
        if abs(a2 - alpha2) < 1e-12 * (a2 + alpha2 + 1e-12):
            return False
        a1 = alpha1 + s * (alpha2 - a2)

        # Threshold update (Platt eq. 20-21).
        b1 = (
            self._b + e1 + y1 * (a1 - alpha1) * k11 + y2 * (a2 - alpha2) * k12
        )
        b2 = (
            self._b + e2 + y1 * (a1 - alpha1) * k12 + y2 * (a2 - alpha2) * k22
        )
        if 0.0 < a1 < self.c:
            new_b = b1
        elif 0.0 < a2 < self.c:
            new_b = b2
        else:
            new_b = (b1 + b2) / 2.0

        # Error cache update for all points: the same expression as
        # ``errors += d1*K1 + d2*K2 - (new_b - b)`` evaluated into
        # preallocated buffers (identical operation order, so identical
        # bits — just no per-step temporaries).
        delta1 = y1 * (a1 - alpha1)
        delta2 = y2 * (a2 - alpha2)
        buf, buf2 = self._ebuf, self._ebuf2
        np.multiply(delta1, K1, out=buf)
        np.multiply(delta2, K2, out=buf2)
        np.add(buf, buf2, out=buf)
        np.subtract(buf, new_b - self._b, out=buf)
        np.add(self._errors, buf, out=self._errors)
        self._alpha[i1], self._alpha[i2] = a1, a2
        self._ay[i1], self._ay[i2] = a1 * y1, a2 * y2
        self._nb_mask[i1] = 0.0 < a1 < self.c
        self._nb_mask[i2] = 0.0 < a2 < self.c
        self._b = new_b
        self._errors[i1] = self._decision_cached(i1) - y1
        self._errors[i2] = self._decision_cached(i2) - y2
        return True

    def _decision_cached(self, i: int) -> float:
        # The Gram is bitwise symmetric (stable_dot Grams are), so the
        # contiguous row stands in for the strided column read.
        return float(self._ay @ self._K[i]) - self._b

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance-like score; positive means class +1."""
        if not self._fitted:
            raise RuntimeError("BinarySVM is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.n_support_ == 0:
            return np.full(X.shape[0], -self.intercept_)
        K = self.kernel.gram(self.support_vectors_, X, x_sq=self._sv_sq_norms)
        return self.dual_coef_ @ K - self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in {-1, +1}."""
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, 1.0, -1.0)


class SupportVectorBank:
    """The support vectors of several machines, each row held once.

    A training row is often a support vector of several machines.
    Row ``p`` of :attr:`coef` holds machine ``p``'s dual coefficients
    in its support vectors' bank columns and zeros elsewhere, so one
    Gram ``K(X, bank)`` and one product give every machine's decision
    values.

    Args:
        kernel: the kernel every machine was fitted with.
        X: the training rows the machines' support vectors come from.
        machines: fitted machines.
        support_rows: each machine's support vectors, as rows of ``X``.
    """

    def __init__(
        self,
        kernel: Kernel,
        X: np.ndarray,
        machines: Sequence[BinarySVM],
        support_rows: Sequence[np.ndarray],
    ) -> None:
        self.kernel = kernel
        #: Row of ``X`` behind each bank vector, ascending.
        self.rows = np.unique(np.concatenate(support_rows))
        self.vectors = X[self.rows]
        self.sq_norms = kernel.row_sq_norms(self.vectors)
        self.coef = np.zeros((len(machines), len(self.rows)))
        for p, (machine, rows) in enumerate(zip(machines, support_rows)):
            self.coef[p, np.searchsorted(self.rows, rows)] = machine.dual_coef_
        self.intercept = np.asarray([m.intercept_ for m in machines], dtype=float)

    def decisions(
        self, X: np.ndarray, bank_gram: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Every machine's decision values, shape ``(n, machines)``.

        The Gram ``K(X, bank)`` and its product with :attr:`coef` both
        reduce each output element over its own row in a fixed order
        (:func:`repro.ml.kernels.stable_dot` over a C-contiguous
        ``(n, bank)`` Gram), so a row's decisions are a bitwise
        function of that row alone, whatever batch it rides in.  The
        Gram takes :attr:`vectors` and :attr:`sq_norms` as built
        (:meth:`repro.ml.kernels.Kernel.gram_2d`), with no per-call
        checks.

        Args:
            X: query points, a 2-D float array ``(n, d)``, as the
                classifiers' ``predict`` paths pass them.
            bank_gram: optional precomputed ``kernel(bank, X)``, e.g.
                sliced out of a cached full-dataset Gram; it equals
                ``kernel(X, bank).T`` bit for bit.
        """
        if bank_gram is None:
            K = self.kernel.gram_2d(X, self.vectors, None, self.sq_norms)
        else:
            K = np.ascontiguousarray(self.check_gram(bank_gram, X.shape[0]).T)
        return stable_dot(K, self.coef) - self.intercept

    def check_gram(self, bank_gram: np.ndarray, n: int) -> np.ndarray:
        """``bank_gram`` as floats, checked to be ``kernel(bank, X)`` of ``n`` rows.

        Raises:
            ValueError: its shape is not ``(bank, n)``.
        """
        bank_gram = np.asarray(bank_gram, dtype=float)
        if bank_gram.shape != (self.rows.size, n):
            raise ValueError(
                f"bank_gram must have shape {(self.rows.size, n)}, "
                f"got {bank_gram.shape}"
            )
        return bank_gram


class SupportVectorClassifier:
    """Multiclass SVM via one-vs-one voting (the libsvm scheme).

    Labels may be any hashable values (room-name strings in the
    occupancy pipeline).

    Args:
        c: box constraint shared by all pairwise machines.
        kernel: shared kernel; default RBF.
        tol, max_passes, max_iter, seed: passed to each
            :class:`BinarySVM`.
    """

    def __init__(
        self,
        c: float = 1.0,
        kernel: Optional[Kernel] = None,
        *,
        tol: float = 1e-3,
        max_passes: int = 3,
        max_iter: int = 200_000,
        seed: int = 0,
    ) -> None:
        self.c = c
        self.kernel = kernel if kernel is not None else RbfKernel()
        self.tol = tol
        self.max_passes = max_passes
        self.max_iter = max_iter
        self.seed = seed
        self._machines: Dict[Tuple[int, int], BinarySVM] = {}
        self.classes_: List = []
        # Training data retained for incremental refresh (see refresh()).
        self._fit_X: Optional[np.ndarray] = None
        self._fit_y: Optional[np.ndarray] = None

    def get_params(self) -> dict:
        """Constructor parameters (for grid search cloning)."""
        return {
            "c": self.c,
            "kernel": self.kernel,
            "tol": self.tol,
            "max_passes": self.max_passes,
            "max_iter": self.max_iter,
            "seed": self.seed,
        }

    def clone(self) -> "SupportVectorClassifier":
        """An unfitted copy with the same parameters."""
        return SupportVectorClassifier(**self.get_params())

    def gram_kernel(self) -> Kernel:
        """Kernel a precomputed-Gram ``fit`` would consume.

        Exposing this method is the gram-aware protocol: callers such
        as :func:`repro.ml.model_selection.cross_val_score` use it to
        slice fold Grams out of a shared full-dataset Gram and hand
        them to ``fit(..., gram=...)``.
        """
        return self.kernel

    def fit(
        self,
        X: np.ndarray,
        y: Sequence,
        *,
        gram: Optional[np.ndarray] = None,
    ) -> "SupportVectorClassifier":
        """Train one binary machine per unordered class pair.

        All C(k, 2) pairwise Grams are submatrices of the full-dataset
        Gram, so one shared ``kernel(X, X)`` — taken from ``gram``, or
        from the process-wide :class:`repro.ml.gram_cache.GramCache`
        — is computed and each machine receives its pair's slice.
        Slice-stable kernels make the resulting models byte-identical
        to computing every pair's Gram on its own.

        Args:
            X: feature matrix.
            y: class labels (any hashable values).
            gram: optional precomputed ``self.kernel(X, X)``.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        if len(set(y.tolist())) < 2:
            raise ValueError("need at least two classes")
        n = X.shape[0]
        if gram is None:
            gram = gram_cache.default_cache().full(self.kernel, X)
        else:
            gram = np.asarray(gram, dtype=float)
            if gram.shape != (n, n):
                raise ValueError(
                    f"gram must have shape {(n, n)}, got {gram.shape}"
                )
        self._fit_pairs(X, y, gram, {})
        return self

    def refresh(
        self, new_X: np.ndarray, new_y: Sequence
    ) -> "SupportVectorClassifier":
        """Incrementally absorb appended training rows.

        Equivalent to ``fit`` on the concatenation of the original
        training data and ``(new_X, new_y)``, but cheaper on two axes:

        - the full Gram of the concatenated dataset is assembled by
          :meth:`repro.ml.gram_cache.GramCache.extend` — O(n*m) new
          kernel work instead of the O(n^2) rebuild a cold fit pays;
        - only the *affected* one-vs-one pairs (those involving at
          least one class present in ``new_y``) are refitted; every
          other pair's training rows are untouched by the append, so
          its already-fitted machine is reused verbatim.

        The refitted machines run SMO from zero on Gram slices that
        are bit-equal to a cold fit's, so the refreshed model —
        alphas, intercepts, support indices, every machine — is
        **byte-identical** to
        ``clone().fit(concat(X, new_X), concat(y, new_y))``.

        Args:
            new_X: appended feature rows.
            new_y: their class labels (may introduce new classes).
        """
        if not self._machines:
            raise RuntimeError(
                "refresh needs a fitted classifier; call fit() first"
            )
        new_X = np.asarray(new_X, dtype=float)
        new_y = np.asarray(new_y)
        if new_X.ndim != 2:
            raise ValueError(f"new_X must be 2-D, got shape {new_X.shape}")
        if new_X.shape[0] != new_y.shape[0]:
            raise ValueError(
                f"new_X has {new_X.shape[0]} rows but new_y has "
                f"{new_y.shape[0]} labels"
            )
        if new_X.shape[0] == 0:
            self.refresh_stats_ = {
                "new_rows": 0,
                "refitted_pairs": 0,
                "reused_pairs": len(self._machines),
            }
            return self
        if new_X.shape[1] != self._fit_X.shape[1]:
            raise ValueError(
                f"new_X has {new_X.shape[1]} features, "
                f"expected {self._fit_X.shape[1]}"
            )
        with profiling.measure("ml.svm.refresh"):
            # A pair neither of whose classes gained rows keeps its
            # training rows (appended rows sit strictly after the
            # originals, so even their global positions hold), and
            # its fitted machine carries over.
            touched = set(new_y.tolist())
            reuse = {
                (self.classes_[a], self.classes_[b]): machine
                for (a, b), machine in self._machines.items()
                if not touched & {self.classes_[a], self.classes_[b]}
            }
            gram = gram_cache.default_cache().extend(
                self.kernel, self._fit_X, new_X
            )
            self._fit_pairs(
                np.concatenate([self._fit_X, new_X], axis=0),
                np.concatenate([self._fit_y, new_y], axis=0),
                gram,
                reuse,
            )
            self.refresh_stats_ = {
                "new_rows": int(new_X.shape[0]),
                "refitted_pairs": len(self._machines) - len(reuse),
                "reused_pairs": len(reuse),
            }
        return self

    def _fit_pairs(
        self,
        X: np.ndarray,
        y: np.ndarray,
        gram: np.ndarray,
        reuse: Dict[Tuple, BinarySVM],
    ) -> None:
        """Fit one machine per class pair on its slice of ``gram``.

        ``reuse`` maps a ``(positive, negative)`` label pair to an
        already-fitted machine whose training rows are unchanged; that
        pair keeps it instead of being solved again.
        """
        self.classes_ = sorted(set(y.tolist()))
        self._machines = {}
        sv_global: Dict[Tuple[int, int], np.ndarray] = {}
        for a in range(len(self.classes_)):
            for b in range(a + 1, len(self.classes_)):
                positive, negative = self.classes_[a], self.classes_[b]
                rows = np.flatnonzero((y == positive) | (y == negative))
                machine = reuse.get((positive, negative))
                if machine is None:
                    machine = BinarySVM(
                        c=self.c,
                        kernel=self.kernel,
                        tol=self.tol,
                        max_passes=self.max_passes,
                        max_iter=self.max_iter,
                        seed=self.seed,
                    )
                    machine.fit(
                        X[rows],
                        np.where(y[rows] == positive, 1.0, -1.0),
                        gram=gram[np.ix_(rows, rows)],
                    )
                self._machines[(a, b)] = machine
                sv_global[(a, b)] = rows[machine.support_indices_]
        self._build_sv_bank(X, sv_global)
        self._fit_X = X
        self._fit_y = y

    def _build_sv_bank(
        self, X: np.ndarray, sv_global: Dict[Tuple[int, int], np.ndarray]
    ) -> None:
        """Fold the pairwise machines into one :class:`SupportVectorBank`.

        The vote's tables are fixed here too.  Pair ``p = (a, b)``
        votes for ``b`` unless it wins for ``a``, so a row's votes are
        ``_base_votes`` (each class's count of pairs it comes second
        in) plus its wins times ``_vote_table``, which holds +1 at
        ``(a, p)`` and -1 at ``(b, p)``.  The same table sums the
        signed decisions of the tie-break.
        """
        self._bank = SupportVectorBank(
            self.kernel,
            X,
            [self._machines[pair] for pair in sv_global],
            list(sv_global.values()),
        )
        #: Training-set row of each bank vector, in bank order — lets
        #: callers that know where the training rows sit inside a
        #: larger cached dataset slice the bank Gram instead of
        #: recomputing it (see model_selection._score_fold).
        self.sv_bank_indices_ = self._bank.rows
        wins_a = np.zeros((len(self.classes_), len(sv_global)))
        wins_b = np.zeros_like(wins_a)
        for p, (a, b) in enumerate(sv_global):
            wins_a[a, p] = wins_b[b, p] = 1.0
        self._vote_table = wins_a - wins_b
        self._base_votes = wins_b.sum(axis=1)
        self._classes = np.asarray(self.classes_)

    def predict(
        self,
        X: np.ndarray,
        *,
        bank_gram: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Majority vote across pairwise machines.

        Pair ``(a, b)`` votes for ``a`` where its decision is >= 0 and
        for ``b`` elsewhere.  Ties are broken by the summed signed
        decisions (a class adds those of the pairs it comes first in
        and subtracts the others), then by class order.

        Rows are decided in blocks of :data:`PREDICT_BLOCK`; each
        row's decisions depend on that row alone, so the blocks do not
        change the labels.

        Args:
            X: query points.
            bank_gram: optional precomputed ``kernel(bank, X)`` for the
                support-vector bank, e.g. sliced out of a cached
                full-dataset Gram; slice-stable kernels make the
                predictions identical to the compute-here path.
        """
        if not self._machines:
            raise RuntimeError("SupportVectorClassifier is not fitted")
        with profiling.measure("ml.svm.predict"):
            X = np.asarray(X, dtype=float)
            if X.ndim == 1:
                X = X.reshape(1, -1)
            if X.ndim != 2:
                raise ValueError(f"X must be 2-D, got shape {X.shape}")
            n = X.shape[0]
            if bank_gram is not None:
                bank_gram = self._bank.check_gram(bank_gram, n)
            labels = np.empty(n, dtype=self._classes.dtype)
            for start in range(0, n, PREDICT_BLOCK):
                block = slice(start, start + PREDICT_BLOCK)
                gram = None if bank_gram is None else bank_gram[:, block]
                labels[block] = self._vote(self._bank.decisions(X[block], gram))
            return labels

    def _vote(self, decision: np.ndarray) -> np.ndarray:
        """Each row's winning class from its pairwise decisions.

        One product over the stacked rows ``[wins; decision]`` gives
        the votes, exact small integers, and the tie-break scores,
        each a row-pure reduction (:func:`stable_dot`).
        """
        n = len(decision)
        stacked = np.concatenate((decision >= 0.0, decision))
        both = stable_dot(stacked, self._vote_table)
        votes = both[:n] + self._base_votes
        # Lexicographic: votes first, aggregate score as tiebreak.
        ranking = votes + 1e-9 * np.tanh(both[n:])
        return self._classes[ranking.argmax(axis=1)]

    def score(
        self,
        X: np.ndarray,
        y: Sequence,
        *,
        bank_gram: Optional[np.ndarray] = None,
    ) -> float:
        """Mean accuracy on ``(X, y)`` (``bank_gram`` as in predict)."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X, bank_gram=bank_gram) == y))

    @property
    def n_support_total(self) -> int:
        """Total support vectors across all pairwise machines."""
        return sum(m.n_support_ for m in self._machines.values())  # repro: noqa[numeric-dict-reduction] integer counts, order-free
