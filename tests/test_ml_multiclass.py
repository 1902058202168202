"""Tests for the one-vs-rest multiclass reduction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.kernels import LinearKernel, RbfKernel
from repro.ml.knn import KNeighborsClassifier
from repro.ml.multiclass import OneVsRestClassifier
from repro.ml.svm import BinarySVM, SupportVectorClassifier


def blobs(rng, centers, n_per=30, spread=0.5):
    X = np.vstack([rng.normal(c, spread, size=(n_per, len(c))) for c in centers])
    y = np.array(sum([["c%d" % i] * n_per for i in range(len(centers))], []))
    return X, y


class TestOneVsRest:
    def test_three_class_accuracy(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        model = OneVsRestClassifier(lambda: BinarySVM(c=5.0)).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_one_machine_per_class(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)])
        model = OneVsRestClassifier().fit(X, y)
        assert len(model._machines) == 4

    def test_decision_matrix_shape(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        model = OneVsRestClassifier().fit(X, y)
        assert model.decision_matrix(X[:7]).shape == (7, 3)

    def test_agrees_with_ovo_on_easy_data(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [(0, 0), (5, 0), (0, 5)], spread=0.4)
        ovr = OneVsRestClassifier(lambda: BinarySVM(c=10.0)).fit(X, y)
        ovo = SupportVectorClassifier(c=10.0).fit(X, y)
        agreement = np.mean(ovr.predict(X) == ovo.predict(X))
        assert agreement > 0.97

    def test_generalises(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [(0, 0), (4, 0)], n_per=50)
        Xt, yt = blobs(rng, [(0, 0), (4, 0)], n_per=15)
        model = OneVsRestClassifier().fit(X, y)
        assert model.score(Xt, yt) > 0.9

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            OneVsRestClassifier().predict(np.ones((1, 2)))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            OneVsRestClassifier().fit(np.ones((4, 2)), ["a"] * 4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OneVsRestClassifier().fit(np.ones((4, 2)), ["a", "b"])

    def test_clone_unfitted(self):
        model = OneVsRestClassifier().clone()
        with pytest.raises(RuntimeError):
            model.predict(np.ones((1, 2)))

    def test_custom_kernel_factory(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, [(0, 0), (3, 0)])
        model = OneVsRestClassifier(
            lambda: BinarySVM(c=5.0, kernel=RbfKernel(gamma=1.0))
        ).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_gram_kernel_is_the_factorys_kernel(self):
        kernel = RbfKernel(gamma=0.3)
        model = OneVsRestClassifier(lambda: BinarySVM(c=5.0, kernel=kernel))
        assert model.gram_kernel() == kernel

    def test_precomputed_gram_fits_like_a_plain_fit(self):
        """``fit(gram=...)`` trains every machine on the one Gram it is
        given: the kernel's own Gram gives the plain fit's decisions,
        and a Gram of the wrong shape is refused."""
        rng = np.random.default_rng(8)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4)])
        kernel = RbfKernel(gamma=0.5)
        plain = OneVsRestClassifier(lambda: BinarySVM(c=5.0, kernel=kernel))
        given_gram = plain.clone().fit(X, y, gram=kernel(X, X))
        plain.fit(X, y)
        queries = rng.uniform(-1.0, 5.0, size=(30, 2))
        np.testing.assert_array_equal(
            given_gram.decision_matrix(queries), plain.decision_matrix(queries)
        )
        with pytest.raises(ValueError, match="gram must have shape"):
            plain.clone().fit(X, y, gram=kernel(X[:-1], X[:-1]))

    def test_decision_matrix_matches_machine_decision_functions(self):
        """The shared bank's product agrees with each machine's own
        decision function, up to rounding, and picks the same class."""
        rng = np.random.default_rng(6)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)], spread=1.0)
        model = OneVsRestClassifier(lambda: BinarySVM(c=5.0)).fit(X, y)
        assert model._bank is not None
        queries = rng.uniform(-1.0, 5.0, size=(60, 2))
        matrix = model.decision_matrix(queries)
        columns = np.column_stack(
            [model._machines[c].decision_function(queries) for c in model.classes_]
        )
        np.testing.assert_allclose(matrix, columns, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(
            np.argmax(matrix, axis=1), np.argmax(columns, axis=1)
        )

    @pytest.mark.parametrize(
        "second",
        [
            lambda: BinarySVM(c=5.0, kernel=RbfKernel(gamma=0.2)),
            lambda: BinarySVM(c=5.0, kernel=LinearKernel()),
            KNeighborsClassifier,
        ],
        ids=["other-gamma", "other-kernel", "not-an-svm"],
    )
    def test_factory_without_one_shared_kernel_is_refused(self, second):
        """Every machine must share one kernel: one Gram trains them all
        and one support-vector bank decides for them all."""
        rng = np.random.default_rng(7)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)])
        builders = itertools.cycle(
            [lambda: BinarySVM(c=5.0, kernel=RbfKernel(gamma=0.5)), second]
        )
        model = OneVsRestClassifier(lambda: next(builders)())
        with pytest.raises(ValueError, match="share one kernel"):
            model.fit(X, y)
        with pytest.raises(RuntimeError):
            model.predict(X[:1])

    @given(
        st.integers(2, 5),
        st.integers(1, 6),
        st.integers(0, 2**16),
        st.lists(st.integers(0, 40), max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_decisions_are_row_pure(self, n_classes, n_features, seed, cuts):
        """A row's per-class decisions are bitwise the same in any batch."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, 6.0, size=(n_classes, n_features))
        X, y = blobs(rng, centers, n_per=12, spread=1.0)
        model = OneVsRestClassifier(
            lambda: BinarySVM(c=10.0, kernel=RbfKernel(0.5))
        ).fit(X, y)
        queries = rng.uniform(-1.0, 7.0, size=(40, n_features))
        full = model.decision_matrix(queries)
        bounds = sorted({0, len(queries), *cuts})
        for start, stop in zip(bounds, bounds[1:]):
            part = model.decision_matrix(queries[start:stop])
            assert part.tobytes() == full[start:stop].tobytes(), (start, stop)
