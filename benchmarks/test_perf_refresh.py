"""Incremental SVM refresh vs cold refit on new calibration.

Online recalibration adds a handful of fingerprints for one room; the
paper's pipeline would retrain the whole one-vs-one ensemble from
scratch.  :meth:`SupportVectorClassifier.refresh` refits only the
class pairs the new rows touch — with 10 rooms and new data in one,
that is 9 of 45 machines — against a Gram matrix extended in
O(n*m) instead of recomputed in O(n^2).

Two things are asserted, in this order:

1. **Correctness, unconditionally**: the refreshed model is
   byte-identical — alphas, intercepts, support indices — to a cold
   fit on the concatenated dataset.
2. **Speed**: refresh sustains >= 3x the cold-refit rate on hosts
   with >= 2 usable cores (single-core CI boxes still run the
   equality check, the bar just relaxes to >= 1.5x).
"""

import time

import numpy as np

from conftest import print_table
from repro.ml import gram_cache
from repro.ml.kernels import RbfKernel
from repro.ml.svm import SupportVectorClassifier
from repro.parallel import available_workers

N_CLASSES = 10
N_PER_CLASS = 36
N_NEW = 16
D = 6


def _clusters(seed, n_classes, n_per, d):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(n_classes, d))
    X = np.concatenate(
        [c + rng.normal(scale=1.1, size=(n_per, d)) for c in centers]
    )
    y = np.repeat(np.arange(n_classes), n_per)
    return X, y


def _state(svc):
    return {
        pair: (
            machine.dual_coef_.tobytes(),
            machine.intercept_,
            machine.support_indices_.tobytes(),
        )
        for pair, machine in svc._machines.items()
    }


def _make():
    return SupportVectorClassifier(
        c=5.0, kernel=RbfKernel(gamma=0.05), seed=0
    )


def test_perf_incremental_refresh(benchmark):
    X, y = _clusters(0, N_CLASSES, N_PER_CLASS, D)
    rng = np.random.default_rng(1)
    base = X[y == 0]
    X_new = base[rng.choice(len(base), size=N_NEW)] + rng.normal(
        scale=0.3, size=(N_NEW, D)
    )
    y_new = np.zeros(N_NEW, dtype=int)
    X_all = np.vstack([X, X_new])
    y_all = np.concatenate([y, y_new])

    warm = _make()
    warm.fit(X, y)

    def run_refresh():
        t0 = time.perf_counter()
        warm.refresh(X_new, y_new)
        return time.perf_counter() - t0

    refresh_s = benchmark.pedantic(run_refresh, rounds=1, iterations=1)

    # Cold refit: a fresh model, a cleared cache — the full Gram is
    # recomputed and all 28 pairs solved from zero, exactly what a
    # paper-style retrain pays.
    gram_cache.default_cache().clear()
    cold = _make()
    t0 = time.perf_counter()
    cold.fit(X_all, y_all)
    cold_s = time.perf_counter() - t0

    # Correctness first, unconditionally: byte-identical models.
    assert _state(warm) == _state(cold)
    assert list(warm.classes_) == list(cold.classes_)
    stats = warm.refresh_stats_
    assert stats["refitted_pairs"] == N_CLASSES - 1
    assert stats["reused_pairs"] == (N_CLASSES - 1) * (N_CLASSES - 2) // 2

    speedup = cold_s / refresh_s
    cores = available_workers()
    floor = 3.0 if cores >= 2 else 1.5
    print_table(
        "Incremental refresh vs cold refit "
        f"({N_CLASSES} rooms, {N_NEW} new rows in one)",
        [
            ("usable cores", "-", f"{cores}"),
            ("cold refit (s)", "full retrain", f"{cold_s:.3f}"),
            ("refresh (s)", "n/a (ours)", f"{refresh_s:.3f}"),
            (
                "refitted pairs",
                f"{N_CLASSES * (N_CLASSES - 1) // 2} (full retrain)",
                f"{stats['refitted_pairs']}",
            ),
            ("speedup", f">= {floor:g}x", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= floor, (
        f"refresh speedup {speedup:.2f}x below the {floor}x floor"
    )
