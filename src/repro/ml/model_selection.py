"""Train/test splitting, cross-validation and grid search.

The paper's protocol: "Part of the collected data was then used to
build the aforementioned SVM model (training set), while another part
was used to test its behaviors (testing set)."  We add stratified
splitting and k-fold cross-validation for the more careful comparison
in the benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml import gram_cache
from repro.parallel.engine import ShardPlan, ShardSpec, run_shards

__all__ = ["train_test_split", "KFold", "cross_val_score", "GridSearch"]


def _fit_fold(model, X: np.ndarray, y: np.ndarray, train_idx: np.ndarray):
    """Fit ``model`` on one fold, reusing the shared full-dataset Gram.

    Every fold's training Gram is a submatrix of ``kernel(X, X)``, so
    gram-aware estimators (those exposing ``gram_kernel()``) receive a
    slice of the process-wide cached full Gram instead of recomputing
    the fold Gram — once per (kernel, dataset) across *all* folds and
    all grid-search candidates sharing the kernel.  Slice-stable
    kernels keep the fitted model byte-identical to the ordinary path.
    """
    kernel = gram_cache.shared_kernel(model)
    if kernel is not None:
        fold_gram = gram_cache.default_cache().sliced(kernel, X, train_idx)
        return model.fit(X[train_idx], y[train_idx], gram=fold_gram)
    return model.fit(X[train_idx], y[train_idx])


def _score_fold(model, X, y, train_idx, test_idx) -> float:
    """Score a fold-fitted model, slicing its bank Gram if possible.

    A fitted model's support-vector bank consists of training rows,
    and the held-out fold consists of other dataset rows — so the
    ``kernel(bank, X_test)`` Gram that prediction needs is a
    row/column block of the same cached full-dataset Gram the fit
    used.  Slice-stable kernels make the sliced predictions identical
    to the compute-here path.
    """
    kernel = gram_cache.shared_kernel(model)
    bank_rows = getattr(model, "sv_bank_indices_", None)
    if kernel is not None and bank_rows is not None and len(bank_rows):
        full = gram_cache.default_cache().full(kernel, X)
        bank_gram = full[np.ix_(train_idx[bank_rows], test_idx)]
        return float(model.score(X[test_idx], y[test_idx], bank_gram=bank_gram))
    return float(model.score(X[test_idx], y[test_idx]))


def _fit_score_fold(spec: ShardSpec) -> float:
    """Process-pool worker: fit a clone on one fold and score it."""
    estimator, X, y, train_idx, test_idx = spec.payload
    model = estimator.clone()
    _fit_fold(model, X, y, train_idx)
    return _score_fold(model, X, y, train_idx, test_idx)


def _evaluate_candidate(spec: ShardSpec) -> Tuple[dict, float]:
    """Process-pool worker: cross-validate one parameter combination."""
    factory, params, X, y, n_splits, seed = spec.payload
    estimator = factory(params)
    scores = cross_val_score(estimator, X, y, n_splits=n_splits, seed=seed)
    return params, float(np.mean(scores))


def train_test_split(
    X: np.ndarray,
    y: Sequence,
    *,
    test_fraction: float = 0.3,
    seed: int = 0,
    stratify: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split into train and test sets.

    Args:
        X: (n, d) feature matrix.
        y: n labels.
        test_fraction: fraction of samples assigned to the test set.
        seed: shuffling seed.
        stratify: keep per-class proportions in both splits.

    Returns:
        ``(X_train, X_test, y_train, y_test)``.

    Raises:
        ValueError: bad fraction, mismatched lengths, or a class with
            fewer than 2 samples when stratifying.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} labels")
    rng = np.random.default_rng(seed)
    test_idx: List[int] = []
    if stratify:
        for cls in sorted(set(y.tolist())):
            cls_idx = np.flatnonzero(y == cls)
            if len(cls_idx) < 2:
                raise ValueError(
                    f"class {cls!r} has {len(cls_idx)} sample(s); "
                    "need >= 2 to stratify"
                )
            cls_idx = rng.permutation(cls_idx)
            n_test = max(1, int(round(len(cls_idx) * test_fraction)))
            # Keep at least one training sample per class.
            n_test = min(n_test, len(cls_idx) - 1)
            test_idx.extend(cls_idx[:n_test].tolist())
    else:
        order = rng.permutation(X.shape[0])
        n_test = max(1, int(round(X.shape[0] * test_fraction)))
        n_test = min(n_test, X.shape[0] - 1)
        test_idx = order[:n_test].tolist()
    test_mask = np.zeros(X.shape[0], dtype=bool)
    test_mask[test_idx] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


@dataclass(frozen=True)
class KFold:
    """K-fold cross-validation splitter.

    Args:
        n_splits: number of folds (>= 2).
        seed: shuffling seed.
    """

    n_splits: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {self.n_splits}")

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` per fold."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n_samples)
        folds = np.array_split(order, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


def cross_val_score(
    estimator,
    X: np.ndarray,
    y: Sequence,
    *,
    n_splits: int = 5,
    seed: int = 0,
    n_jobs: int = 1,
) -> np.ndarray:
    """Per-fold accuracy of a cloneable estimator.

    The estimator must expose ``clone()``, ``fit(X, y)`` and
    ``score(X, y)`` (all classifiers in this package do).  Gram-aware
    estimators additionally have their fold Grams sliced from one
    shared full-dataset Gram (see :mod:`repro.ml.gram_cache`), reused
    across folds and across grid-search candidates with the same
    kernel.  With ``n_jobs > 1`` the folds are fitted on a process
    pool; the fold split comes from the seed alone and the Gram reuse
    is byte-transparent, so the scores array is identical at every
    ``n_jobs``.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    folds = list(KFold(n_splits=n_splits, seed=seed).split(X.shape[0]))
    if n_jobs > 1:
        plan = ShardPlan.create(
            "cross-val",
            seed,
            [(estimator, X, y, train_idx, test_idx) for train_idx, test_idx in folds],
        )
        return np.asarray(run_shards(_fit_score_fold, plan, workers=n_jobs))
    scores = []
    for train_idx, test_idx in folds:
        model = estimator.clone()
        _fit_fold(model, X, y, train_idx)
        scores.append(_score_fold(model, X, y, train_idx, test_idx))
    return np.asarray(scores)


class GridSearch:
    """Exhaustive hyper-parameter search by cross-validation.

    Args:
        factory: callable mapping a parameter dict to an unfitted
            estimator (with ``clone``/``fit``/``score``).
        param_grid: parameter name -> list of candidate values.
        n_splits: CV folds per candidate.
        seed: CV shuffling seed.
        n_jobs: process-pool size evaluating candidates; each
            combination's cross-validation is independently seeded,
            so ``best_params_`` and ``results_`` are identical at
            every ``n_jobs`` (a lambda factory cannot cross the
            process boundary and falls back to serial evaluation).

    Candidates that share a kernel also share one full-dataset Gram
    through the process-wide :class:`repro.ml.gram_cache.GramCache`
    (each pool worker keeps its own, warmed by the candidates it is
    handed), so e.g. a sweep over ``C`` computes the kernel exactly
    once per fold layout instead of once per candidate.

    Example:
        >>> from repro.ml.svm import SupportVectorClassifier
        >>> from repro.ml.kernels import RbfKernel
        >>> grid = GridSearch(
        ...     lambda p: SupportVectorClassifier(
        ...         c=p["c"], kernel=RbfKernel(gamma=p["gamma"])),
        ...     {"c": [1.0, 10.0], "gamma": [0.1, 0.5]},
        ... )
    """

    def __init__(
        self,
        factory,
        param_grid: Dict[str, Sequence],
        *,
        n_splits: int = 3,
        seed: int = 0,
        n_jobs: int = 1,
    ) -> None:
        if not param_grid:
            raise ValueError("param_grid must not be empty")
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        self.factory = factory
        self.param_grid = {k: list(v) for k, v in param_grid.items()}
        self.n_splits = n_splits
        self.seed = seed
        self.n_jobs = n_jobs
        self.results_: List[Tuple[dict, float]] = []
        self.best_params_: Optional[dict] = None
        self.best_score_: float = -np.inf

    def _candidates(self) -> List[dict]:
        """All parameter combinations, in deterministic grid order."""
        keys = sorted(self.param_grid)
        return [
            dict(zip(keys, values))
            for values in itertools.product(*(self.param_grid[k] for k in keys))
        ]

    def fit(self, X: np.ndarray, y: Sequence) -> "GridSearch":
        """Evaluate every parameter combination; keep the best.

        Candidates are scored in grid order regardless of which
        worker finished first, so ties keep resolving to the earliest
        combination exactly as in the serial loop.
        """
        X = np.asarray(X)
        y = np.asarray(y)
        candidates = self._candidates()
        if self.n_jobs > 1:
            plan = ShardPlan.create(
                "grid-search",
                self.seed,
                [
                    (self.factory, params, X, y, self.n_splits, self.seed)
                    for params in candidates
                ],
            )
            scored = run_shards(_evaluate_candidate, plan, workers=self.n_jobs)
        else:
            scored = [
                _evaluate_candidate(
                    ShardSpec(
                        index=i,
                        seed=self.seed,
                        payload=(
                            self.factory, params, X, y, self.n_splits, self.seed
                        ),
                    )
                )
                for i, params in enumerate(candidates)
            ]
        self.results_ = []
        for params, mean_score in scored:
            self.results_.append((params, mean_score))
            if mean_score > self.best_score_:
                self.best_score_ = mean_score
                self.best_params_ = params
        return self

    def best_estimator(self, X: np.ndarray, y: Sequence):
        """A fresh estimator with the best parameters, fitted on all data."""
        if self.best_params_ is None:
            raise RuntimeError("GridSearch is not fitted")
        estimator = self.factory(self.best_params_)
        estimator.fit(np.asarray(X), np.asarray(y))
        return estimator
