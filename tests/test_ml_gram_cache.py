"""Tests for the shared-Gram training path.

The entire contract of :mod:`repro.ml.gram_cache` is *byte*-identity:
models fitted through the cached/sliced Grams and the bulk SMO scan
must equal models fitted by the reference solver
(:mod:`tests.smo_oracle`: a Gram per fit, one examine per index)
bit for bit — same alphas, same intercepts, same support indices — on
every kernel and every dataset.  The property tests here pin exactly
that, alongside unit tests of the cache mechanics (keying, LRU
eviction, read-only handouts, hit/miss accounting).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import gram_cache
from repro.ml.gram_cache import GramCache
from repro.ml.kernels import (
    LinearKernel,
    PolynomialKernel,
    RbfKernel,
    stable_dot,
)
from repro.ml.model_selection import GridSearch, cross_val_score
from repro.ml.multiclass import OneVsRestClassifier
from repro.ml.svm import BinarySVM, SupportVectorClassifier
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


def _binary_state(machine):
    return (
        machine.dual_coef_.tobytes(),
        machine.intercept_,
        machine.support_indices_.tobytes(),
    )


def _svc_state(svc):
    return {
        pair: _binary_state(machine)
        for pair, machine in svc._machines.items()
    }


def _ovr_state(ovr):
    return {
        cls: _binary_state(machine)
        for cls, machine in ovr._machines.items()
    }


class TestSliceStability:
    def test_stable_dot_submatrix_is_bitwise_slice(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 7))
        rows = np.array([3, 8, 11, 17, 29, 33])
        full = stable_dot(X, X)
        assert np.array_equal(
            full[np.ix_(rows, rows)], stable_dot(X[rows], X[rows])
        )

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
    def test_kernel_grams_are_slice_stable(self, kernel):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 5))
        rows = np.array([0, 4, 9, 12, 25, 28])
        full = kernel(X, X)
        assert np.array_equal(full[np.ix_(rows, rows)], kernel(X[rows], X[rows]))


class TestGramCacheMechanics:
    def test_full_caches_by_kernel_and_content(self):
        cache = GramCache()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        kernel = RbfKernel(gamma=0.2)
        first = cache.full(kernel, X)
        again = cache.full(kernel, X.copy())  # equal content, new object
        assert again is first
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "extends": 0,
        }
        # An equal-parameter kernel instance shares the entry too.
        assert cache.full(RbfKernel(gamma=0.2), X) is first
        # A different kernel or dataset misses.
        cache.full(RbfKernel(gamma=0.3), X)
        cache.full(kernel, X + 1.0)
        assert cache.stats()["misses"] == 3

    def test_full_result_is_read_only_and_correct(self):
        cache = GramCache()
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 4))
        kernel = LinearKernel()
        gram = cache.full(kernel, X)
        assert np.array_equal(gram, kernel(X, X))
        assert not gram.flags.writeable
        with pytest.raises(ValueError):
            gram[0, 0] = 0.0

    def test_sliced_equals_direct_submatrix(self):
        cache = GramCache()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 6))
        rows = np.array([1, 5, 7, 13, 19])
        for kernel in KERNELS:
            sub = cache.sliced(kernel, X, rows)
            assert np.array_equal(sub, kernel(X[rows], X[rows]))
            assert not sub.flags.writeable
            # The second request reuses the gathered block.
            hits = cache.hits
            assert cache.sliced(kernel, X, rows) is sub
            assert cache.hits == hits + 1

    def test_lru_eviction(self):
        cache = GramCache(max_entries=2)
        kernel = LinearKernel()
        rng = np.random.default_rng(5)
        matrices = [rng.normal(size=(6, 2)) for _ in range(3)]
        grams = [cache.full(kernel, X) for X in matrices]
        assert len(cache) == 2
        # The oldest entry was evicted: refetching it recomputes.
        assert cache.full(kernel, matrices[0]) is not grams[0]
        # The newest survived.
        assert cache.full(kernel, matrices[2]) is grams[2]

    def test_clear_resets_everything(self):
        cache = GramCache()
        cache.full(LinearKernel(), np.eye(4))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "extends": 0,
        }

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            GramCache(max_entries=0)

    def test_shared_kernel_protocol(self):
        kernel = RbfKernel(gamma=0.7)
        svc = SupportVectorClassifier(kernel=kernel)
        assert gram_cache.shared_kernel(svc) == kernel
        assert gram_cache.shared_kernel(object()) is None


class TestByteIdentity:
    """Shared Gram and bulk scan vs the reference solver: same bits."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kernel=st.sampled_from(KERNELS),
        n_classes=st.integers(2, 4),
    )
    def test_ovo_fit_identical(self, seed, kernel, n_classes):
        X, y = _clusters(seed, n_classes, n_per=12, d=3)

        gram_cache.default_cache().clear()
        fast = SupportVectorClassifier(c=1.5, kernel=kernel, seed=0).fit(X, y)
        legacy = ReferenceSVC(c=1.5, kernel=kernel, seed=0).fit(X, y)
        assert _svc_state(fast) == _svc_state(legacy)
        # Scores agree too (the shared-bank predict path).
        assert fast.score(X, y) == legacy.score(X, y)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(KERNELS))
    def test_ovr_fit_identical(self, seed, kernel):
        X, y = _clusters(seed, n_classes=3, n_per=10, d=3)

        def build(machine):
            return OneVsRestClassifier(
                lambda: machine(c=2.0, kernel=kernel, seed=0)
            )

        gram_cache.default_cache().clear()
        fast = build(BinarySVM).fit(X, y)
        legacy = build(ReferenceBinarySVM).fit(X, y)
        assert _ovr_state(fast) == _ovr_state(legacy)
        assert np.array_equal(fast.predict(X), legacy.predict(X))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), kernel=st.sampled_from(KERNELS))
    def test_cross_val_identical(self, seed, kernel):
        X, y = _clusters(seed, n_classes=3, n_per=12, d=3)
        gram_cache.default_cache().clear()
        fast = cross_val_score(
            SupportVectorClassifier(c=1.0, kernel=kernel, seed=0),
            X, y, n_splits=3, seed=1,
        )
        legacy = cross_val_score(
            ReferenceSVC(c=1.0, kernel=kernel, seed=0),
            X, y, n_splits=3, seed=1,
        )
        assert np.array_equal(fast, legacy)

    def test_grid_search_identical_and_n_jobs_invariant(self):
        X, y = _clusters(7, n_classes=3, n_per=14, d=3)

        def run(n_jobs, factory=_svc_factory):
            grid = GridSearch(
                factory,
                {"c": [0.5, 2.0], "gamma": [0.05, 0.2]},
                n_splits=3,
                seed=0,
                n_jobs=n_jobs,
            )
            return grid.fit(X, y)

        gram_cache.default_cache().clear()
        fast = run(1)
        legacy = run(1, _reference_svc_factory)
        assert fast.results_ == legacy.results_
        assert fast.best_params_ == legacy.best_params_
        assert fast.best_score_ == legacy.best_score_
        # The process-pool path agrees bit for bit as well.
        pooled = run(2)
        assert pooled.results_ == fast.results_
        assert pooled.best_params_ == fast.best_params_

    def test_grid_search_shares_one_gram_across_candidates(self):
        X, y = _clusters(11, n_classes=3, n_per=10, d=3)
        cache = gram_cache.default_cache()
        cache.clear()
        GridSearch(
            _svc_factory,
            {"c": [0.5, 1.0, 2.0, 4.0], "gamma": [0.1]},
            n_splits=3,
            seed=0,
        ).fit(X, y)
        # One full-Gram miss for the dataset (all candidates share the
        # kernel); everything else comes back from the cache.
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] > 0

    def test_reference_solver_computes_its_own_grams(self):
        X, y = _clusters(17, n_classes=3, n_per=10, d=3)
        cache = gram_cache.default_cache()
        cache.clear()
        cross_val_score(
            ReferenceSVC(c=1.0, kernel=RbfKernel(gamma=0.1), seed=0),
            X, y, n_splits=3, seed=0,
        )
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "extends": 0,
        }

    def test_sliced_bank_gram_scoring_matches(self):
        X, y = _clusters(13, n_classes=3, n_per=12, d=3)
        svc = SupportVectorClassifier(
            c=1.0, kernel=RbfKernel(gamma=0.1), seed=0
        )
        svc.fit(X, y)
        rng = np.random.default_rng(0)
        test_idx = rng.choice(X.shape[0], size=10, replace=False)
        full = RbfKernel(gamma=0.1)(X, X)
        bank_gram = full[np.ix_(svc.sv_bank_indices_, test_idx)]
        direct = svc.predict(X[test_idx])
        sliced = svc.predict(X[test_idx], bank_gram=bank_gram)
        assert np.array_equal(direct, sliced)


def _svc_factory(params):
    """Module-level grid-search factory (picklable for n_jobs > 1)."""
    return SupportVectorClassifier(
        c=params["c"], kernel=RbfKernel(gamma=params["gamma"]), seed=0
    )


def _reference_svc_factory(params):
    return ReferenceSVC(
        c=params["c"], kernel=RbfKernel(gamma=params["gamma"]), seed=0
    )
