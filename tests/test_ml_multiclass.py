"""Tests for the one-vs-rest multiclass reduction."""

import numpy as np
import pytest

from repro.ml.kernels import RbfKernel
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
