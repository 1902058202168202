"""Tests for the incremental refresh.

The pinned contract mirrors the Gram cache's: models refreshed with
new calibration rows (extended Grams, reused unaffected pair
machines) must be *byte*-identical — same alphas, same intercepts,
same support indices — to models cold-fitted from scratch on the
concatenated dataset, and to the reference solver's cold fit
(:mod:`tests.smo_oracle`), on every kernel.
"""

import numpy as np
import pytest

from repro.ml import gram_cache
from repro.ml.gram_cache import GramCache
from repro.ml.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.ml.multiclass import OneVsRestClassifier
from repro.ml.svm import BinarySVM, SupportVectorClassifier
from repro.obs.metrics import MetricsRegistry
from tests.smo_oracle import ReferenceBinarySVM, ReferenceSVC

KERNELS = [
    RbfKernel(gamma=0.05),
    LinearKernel(),
    PolynomialKernel(degree=2, gamma=0.1, coef0=1.0),
]


def _clusters(seed, n_classes, n_per, d):
    """Small labelled blobs: separated enough for SMO to terminate."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(n_classes, d))
    X = np.concatenate(
        [c + rng.normal(scale=1.2, size=(n_per, d)) for c in centers]
    )
    y = np.repeat(np.arange(n_classes), n_per)
    return X, y


def _split(seed, n_classes=3, n_per=14, d=3, new_classes=(0,), n_new=4):
    """A base set plus new rows drawn from ``new_classes`` only."""
    X, y = _clusters(seed, n_classes, n_per, d)
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(
        np.flatnonzero(np.isin(y, list(new_classes))), size=n_new
    )
    jitter = rng.normal(scale=0.4, size=(n_new, d))
    return X, y, X[picks] + jitter, y[picks]


def _svc_state(svc):
    return {
        pair: (
            machine.dual_coef_.tobytes(),
            machine.intercept_,
            machine.support_indices_.tobytes(),
        )
        for pair, machine in svc._machines.items()
    }


@pytest.fixture(autouse=True)
def fresh_cache():
    gram_cache.default_cache().clear()
    yield
    gram_cache.default_cache().clear()


class TestGramExtend:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("m", [1, 5])
    def test_extend_is_bitwise_identical_to_direct(self, kernel, m):
        rng = np.random.default_rng(3)
        X_old = rng.normal(size=(12, 4))
        X_new = rng.normal(size=(m, 4))
        cache = GramCache()
        extended = cache.extend(kernel, X_old, X_new)
        direct = kernel(np.vstack([X_old, X_new]), np.vstack([X_old, X_new]))
        assert extended.shape == direct.shape
        assert extended.tobytes() == direct.tobytes()

    def test_extend_reuses_the_concatenated_entry(self):
        rng = np.random.default_rng(4)
        X_old = rng.normal(size=(10, 3))
        X_new = rng.normal(size=(3, 3))
        kernel = RbfKernel(gamma=0.1)
        cache = GramCache()
        first = cache.extend(kernel, X_old, X_new)
        extends_after_first = cache.extends
        second = cache.extend(kernel, X_old, X_new)
        assert second is first
        assert cache.extends == extends_after_first
        # And a plain full() on the concatenation hits the same entry.
        full = cache.full(kernel, np.vstack([X_old, X_new]))
        assert full is first

    def test_extend_counts_in_stats(self):
        rng = np.random.default_rng(5)
        cache = GramCache()
        cache.extend(
            RbfKernel(gamma=0.1),
            rng.normal(size=(8, 2)),
            rng.normal(size=(2, 2)),
        )
        assert cache.stats()["extends"] == 1


class TestObservedTelemetry:
    def test_counters_and_hit_ratio_reach_the_registry(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 3))
        kernel = RbfKernel(gamma=0.1)
        with gram_cache.observed(registry) as cache:
            cache.full(kernel, X)
            cache.full(kernel, X)
            cache.extend(kernel, X, rng.normal(size=(2, 3)))
        assert registry.counter("ml.gram.misses").value == 1.0
        assert registry.counter("ml.gram.hits").value >= 1.0
        assert registry.counter("ml.gram.extends").value == 1.0
        ratio = registry.gauge("ml.gram.hit_ratio").value
        assert 0.0 < ratio < 1.0
        # Detached on exit: later activity stays off this registry.
        cache.full(kernel, rng.normal(size=(4, 3)))
        assert registry.counter("ml.gram.misses").value == 1.0


class TestSvcRefresh:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_refresh_is_byte_identical_to_cold_fit(self, kernel):
        X, y, X_new, y_new = _split(11)
        refreshed = SupportVectorClassifier(c=5.0, kernel=kernel, seed=0)
        refreshed.fit(X, y)
        refreshed.refresh(X_new, y_new)
        X_all, y_all = np.vstack([X, X_new]), np.concatenate([y, y_new])
        cold = SupportVectorClassifier(c=5.0, kernel=kernel, seed=0)
        cold.fit(X_all, y_all)
        reference = ReferenceSVC(c=5.0, kernel=kernel, seed=0)
        reference.fit(X_all, y_all)
        assert _svc_state(refreshed) == _svc_state(cold)
        assert _svc_state(refreshed) == _svc_state(reference)
        assert list(refreshed.classes_) == list(cold.classes_)

    def test_new_class_refresh_is_byte_identical(self):
        X, y = _clusters(12, 3, 12, 3)
        extra_X, extra_y = _clusters(13, 4, 12, 3)
        X_new = extra_X[extra_y == 3][:5]
        y_new = np.full(5, 3)
        refreshed = SupportVectorClassifier(
            c=5.0, kernel=RbfKernel(gamma=0.05), seed=0
        )
        refreshed.fit(X, y)
        refreshed.refresh(X_new, y_new)
        X_all, y_all = np.vstack([X, X_new]), np.concatenate([y, y_new])
        cold = SupportVectorClassifier(
            c=5.0, kernel=RbfKernel(gamma=0.05), seed=0
        )
        cold.fit(X_all, y_all)
        reference = ReferenceSVC(c=5.0, kernel=RbfKernel(gamma=0.05), seed=0)
        reference.fit(X_all, y_all)
        assert _svc_state(refreshed) == _svc_state(cold)
        assert _svc_state(refreshed) == _svc_state(reference)
        assert 3 in refreshed.classes_

    def test_refresh_stats_count_reused_pairs(self):
        # 4 classes, new rows only in class 0: pairs (1,2), (1,3),
        # (2,3) are untouched and must be reused verbatim.
        X, y, X_new, y_new = _split(15, n_classes=4, new_classes=(0,))
        svc = SupportVectorClassifier(
            c=5.0, kernel=RbfKernel(gamma=0.05), seed=0
        )
        svc.fit(X, y)
        before = {
            pair: machine
            for pair, machine in svc._machines.items()
        }
        svc.refresh(X_new, y_new)
        stats = svc.refresh_stats_
        assert stats["new_rows"] == len(X_new)
        assert stats["refitted_pairs"] == 3
        assert stats["reused_pairs"] == 3
        for pair in [(1, 2), (1, 3), (2, 3)]:
            assert svc._machines[pair] is before[pair]

    def test_empty_refresh_is_a_noop(self):
        X, y, _, _ = _split(16)
        svc = SupportVectorClassifier(
            c=5.0, kernel=RbfKernel(gamma=0.05), seed=0
        )
        svc.fit(X, y)
        state = _svc_state(svc)
        svc.refresh(np.empty((0, X.shape[1])), np.empty(0, dtype=int))
        assert _svc_state(svc) == state
        assert svc.refresh_stats_["refitted_pairs"] == 0

    def test_unfitted_refresh_raises(self):
        svc = SupportVectorClassifier(c=5.0, kernel=RbfKernel(gamma=0.05))
        with pytest.raises(RuntimeError, match="fit"):
            svc.refresh(np.zeros((1, 3)), np.zeros(1))

    def test_feature_width_mismatch_raises(self):
        X, y, X_new, y_new = _split(17)
        svc = SupportVectorClassifier(
            c=5.0, kernel=RbfKernel(gamma=0.05), seed=0
        )
        svc.fit(X, y)
        with pytest.raises(ValueError):
            svc.refresh(X_new[:, :2], y_new)


class TestOvrRefresh:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_refresh_is_byte_identical_to_cold_fit(self, kernel):
        X, y, X_new, y_new = _split(18)
        refreshed = OneVsRestClassifier(
            lambda: BinarySVM(c=5.0, kernel=kernel, seed=0)
        )
        refreshed.fit(X, y)
        refreshed.refresh(X_new, y_new)
        X_all, y_all = np.vstack([X, X_new]), np.concatenate([y, y_new])
        probe, _ = _clusters(19, 3, 20, 3)
        for machine in (BinarySVM, ReferenceBinarySVM):
            cold = OneVsRestClassifier(
                lambda machine=machine: machine(c=5.0, kernel=kernel, seed=0)
            )
            cold.fit(X_all, y_all)
            assert np.array_equal(refreshed.predict(probe), cold.predict(probe))
            for label in refreshed.classes_:
                ours = refreshed._machines[label]
                theirs = cold._machines[label]
                assert ours.dual_coef_.tobytes() == theirs.dual_coef_.tobytes()
                assert ours.intercept_ == theirs.intercept_

    def test_unfitted_refresh_raises(self):
        ovr = OneVsRestClassifier()
        with pytest.raises(RuntimeError):
            ovr.refresh(np.zeros((1, 3)), np.zeros(1))
