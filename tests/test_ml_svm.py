"""Tests for the from-scratch SVM (SMO solver)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.kernels import LinearKernel, RbfKernel
from repro.ml.svm import BinarySVM, SupportVectorClassifier
from tests.smo_oracle import vote_predict


def blobs(rng, centers, n_per=40, spread=0.6):
    X = np.vstack([rng.normal(c, spread, size=(n_per, len(c))) for c in centers])
    y = np.concatenate([np.full(n_per, i) for i in range(len(centers))])
    return X, y


QUERY_ROWS = 40

#: (classes, features, seed) of a random one-vs-one model.
random_models = st.tuples(
    st.integers(2, 6), st.integers(1, 8), st.integers(0, 2**16)
)


def random_model(n_classes, n_features, seed):
    """A fitted classifier on random blobs, and query rows around them."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 6.0, size=(n_classes, n_features))
    X, y = blobs(rng, centers, n_per=12, spread=1.0)
    model = SupportVectorClassifier(c=10.0, kernel=RbfKernel(0.5)).fit(X, y)
    return model, rng.uniform(-1.0, 7.0, size=(QUERY_ROWS, n_features))


class TestBinarySVM:
    def test_separable_problem_perfectly_classified(self):
        rng = np.random.default_rng(0)
        X, y01 = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], spread=0.4)
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=10.0, kernel=LinearKernel()).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_xor_needs_rbf(self):
        """Linear fails XOR, RBF solves it - classic kernel check."""
        X = np.array(
            [[0, 0], [1, 1], [0, 1], [1, 0]] * 10, dtype=float
        ) + np.random.default_rng(1).normal(0, 0.05, (40, 2))
        y = np.array([-1, -1, 1, 1] * 10, dtype=float)
        rbf = BinarySVM(c=10.0, kernel=RbfKernel(gamma=2.0)).fit(X, y)
        assert np.mean(rbf.predict(X) == y) > 0.95

    def test_decision_function_sign_matches_predict(self):
        rng = np.random.default_rng(2)
        X, y01 = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=1.0).fit(X, y)
        scores = model.decision_function(X)
        np.testing.assert_array_equal(np.sign(scores) >= 0, model.predict(X) == 1.0)

    def test_support_vectors_subset_of_training(self):
        rng = np.random.default_rng(3)
        X, y01 = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=1.0).fit(X, y)
        assert 0 < model.n_support_ <= X.shape[0]
        for sv in model.support_vectors_:
            assert any(np.allclose(sv, row) for row in X)

    def test_dual_coefficients_bounded_by_c(self):
        rng = np.random.default_rng(4)
        X, y01 = blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], spread=1.0)
        y = np.where(y01 == 0, -1.0, 1.0)
        c = 2.5
        model = BinarySVM(c=c).fit(X, y)
        assert np.all(np.abs(model.dual_coef_) <= c + 1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        X, y01 = blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], spread=1.2)
        y = np.where(y01 == 0, -1.0, 1.0)
        a = BinarySVM(c=1.0, seed=7).fit(X, y)
        b = BinarySVM(c=1.0, seed=7).fit(X, y)
        np.testing.assert_allclose(
            a.decision_function(X), b.decision_function(X)
        )

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            BinarySVM().fit(np.ones((5, 2)), np.ones(5))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            BinarySVM().fit(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            BinarySVM().fit(np.ones((4, 2)), np.array([-1.0, 1.0]))

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            BinarySVM(c=0.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BinarySVM().predict(np.ones((1, 2)))

    def test_single_sample_prediction_shape(self):
        rng = np.random.default_rng(6)
        X, y01 = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM().fit(X, y)
        assert model.predict(np.array([0.5, 0.0])).shape == (1,)


class TestKktConditions:
    """The trained solution must satisfy the soft-margin KKT system -
    the mathematical definition of 'SMO converged correctly'."""

    def trained(self, seed=0, c=2.0):
        rng = np.random.default_rng(seed)
        X, y01 = blobs(rng, [(-1.5, 0.0), (1.5, 0.0)], n_per=30, spread=1.0)
        y = np.where(y01 == 0, -1.0, 1.0)
        model = BinarySVM(c=c, kernel=RbfKernel(gamma=0.5), tol=1e-4)
        model.fit(X, y)
        return model, X, y

    def test_dual_balance(self):
        """sum_i alpha_i y_i = 0 (the equality constraint)."""
        model, X, y = self.trained()
        assert abs(model.dual_coef_.sum()) < 1e-6

    def test_margin_conditions(self):
        """Non-bound SVs sit on the margin; bound ones inside it;
        non-SVs outside.  Checked via y_i f(x_i)."""
        model, X, y = self.trained()
        c = model.c
        margins = y * model.decision_function(X)
        # Recover per-sample alpha from the stored SV coefficients.
        alphas = np.zeros(len(X))
        for coef, sv in zip(model.dual_coef_, model.support_vectors_):
            idx = next(
                i for i, row in enumerate(X)
                if np.allclose(row, sv) and alphas[i] == 0.0
            )
            alphas[idx] = abs(coef)
        tol = 5e-2
        for alpha, margin in zip(alphas, margins):
            if alpha < 1e-8:
                assert margin >= 1.0 - tol  # correctly outside margin
            elif alpha > c - 1e-8:
                assert margin <= 1.0 + tol  # bound: inside/violating
            else:
                assert abs(margin - 1.0) < tol  # free SV: on the margin


class TestMulticlassSVC:
    def test_three_class_blobs(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
        labels = np.array(["a", "b", "c"])[y.astype(int)]
        model = SupportVectorClassifier(c=10.0).fit(X, labels)
        assert model.score(X, labels) > 0.95

    def test_string_labels_roundtrip(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [(0.0, 0.0), (5.0, 0.0)])
        labels = np.array(["kitchen", "living"])[y.astype(int)]
        model = SupportVectorClassifier().fit(X, labels)
        assert set(model.predict(X)) <= {"kitchen", "living"}

    def test_number_of_pairwise_machines(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)], n_per=20)
        model = SupportVectorClassifier(c=5.0).fit(X, y)
        assert len(model._machines) == 6  # C(4, 2)

    def test_classes_sorted(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [(0, 0), (5, 0)])
        labels = np.array(["zebra", "apple"])[y.astype(int)]
        model = SupportVectorClassifier().fit(X, labels)
        assert model.classes_ == ["apple", "zebra"]

    def test_clone_is_unfitted_with_same_params(self):
        model = SupportVectorClassifier(c=3.0, kernel=RbfKernel(0.2))
        clone = model.clone()
        assert clone.c == 3.0
        assert clone.kernel.gamma == 0.2
        with pytest.raises(RuntimeError):
            clone.predict(np.ones((1, 2)))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SupportVectorClassifier().fit(np.ones((5, 2)), ["a"] * 5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SupportVectorClassifier().predict(np.ones((1, 2)))

    def test_generalises_to_held_out_data(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], n_per=60)
        X_test, y_test = blobs(rng, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], n_per=20)
        model = SupportVectorClassifier(c=10.0).fit(X, y)
        assert model.score(X_test, y_test) > 0.85

    def test_n_support_total_positive(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, [(0.0, 0.0), (4.0, 0.0)])
        model = SupportVectorClassifier().fit(X, y)
        assert model.n_support_total > 0


class TestBatchedPrediction:
    """The shared-Gram batch path must agree with per-row prediction."""

    @staticmethod
    def _fingerprint_model(n_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        centers = [tuple(rng.uniform(0.0, 8.0, size=4)) for _ in range(n_classes)]
        X, y = blobs(rng, centers, n_per=25, spread=0.8)
        labels = np.array([f"room-{int(k)}" for k in y])
        return SupportVectorClassifier(c=10.0, kernel=RbfKernel(0.5)).fit(X, labels)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_per_row_over_random_fingerprints(self, query_seed):
        model = self._fingerprint_model()
        rng = np.random.default_rng(query_seed)
        X = rng.uniform(-2.0, 10.0, size=(17, 4))
        batched = model.predict(X)
        per_row = np.asarray(
            [model.predict(row.reshape(1, -1))[0] for row in X]
        )
        np.testing.assert_array_equal(batched, per_row)

    def test_sv_bank_deduplicates_shared_support_vectors(self):
        model = self._fingerprint_model(n_classes=4, seed=3)
        bank = model._bank
        assert 0 < bank.rows.size <= model.n_support_total
        assert bank.coef.shape == (len(model._machines), bank.rows.size)
        # Every bank row is some machine's support vector.
        assert np.all(np.any(bank.coef != 0.0, axis=0))
        for p, machine in enumerate(model._machines.values()):
            columns = np.flatnonzero(bank.coef[p])
            np.testing.assert_array_equal(bank.coef[p, columns], machine.dual_coef_)
            np.testing.assert_array_equal(
                bank.vectors[columns], machine.support_vectors_
            )
            assert bank.intercept[p] == machine.intercept_

    def test_sv_sq_norms_cached_per_machine(self):
        model = self._fingerprint_model()
        for machine in model._machines.values():
            np.testing.assert_allclose(
                machine._sv_sq_norms,
                np.sum(machine.support_vectors_ ** 2, axis=1),
            )

    @given(random_models)
    @settings(max_examples=25, deadline=None)
    def test_predict_matches_per_machine_vote_oracle(self, spec):
        """The bank's matrix products vote as the per-machine loop
        does (the bank is an optimisation, not a semantic change)."""
        model, X = random_model(*spec)
        np.testing.assert_array_equal(model.predict(X), vote_predict(model, X))
        # The decisions sum the same terms in another order.  Every RBF
        # Gram entry is at most 1, so each of the bank + 1 roundings
        # (terms, then the intercept) moves a value by at most
        # eps * (sum |coef| + |intercept|).
        bank = model._bank
        scale = np.abs(bank.coef).sum(axis=1) + np.abs(bank.intercept)
        tol = (bank.rows.size + 1) * np.finfo(float).eps * scale.max()
        per_machine = np.column_stack(
            [m.decision_function(X) for m in model._machines.values()]
        )
        np.testing.assert_allclose(bank.decisions(X), per_machine, rtol=0, atol=tol)

    @given(random_models, st.lists(st.integers(0, QUERY_ROWS), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_decisions_are_row_pure(self, spec, cuts):
        """A row's pairwise decisions are bitwise the same in any batch."""
        model, X = random_model(*spec)
        full = model._bank.decisions(X)
        bounds = sorted({0, len(X), *cuts})
        for start, stop in zip(bounds, bounds[1:]):
            part = model._bank.decisions(X[start:stop])
            assert part.tobytes() == full[start:stop].tobytes(), (start, stop)

    @given(random_models)
    @settings(max_examples=15, deadline=None)
    def test_bank_gram_path_bitwise_equals_compute_here(self, spec):
        """A bank Gram sliced out of a full-dataset Gram, as
        cross-validation passes it, gives the same bits."""
        model, X = random_model(*spec)
        Z = np.vstack([model._fit_X, X])
        queries = len(model._fit_X) + np.arange(len(X))
        bank_gram = model.kernel(Z, Z)[np.ix_(model.sv_bank_indices_, queries)]
        sliced = model._bank.decisions(X, bank_gram)
        assert sliced.tobytes() == model._bank.decisions(X).tobytes()
        np.testing.assert_array_equal(
            model.predict(X, bank_gram=bank_gram), model.predict(X)
        )

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000])
    def test_predict_blocks_are_invisible(self, rows):
        """A predict of any size, decided in blocks of PREDICT_BLOCK
        rows, labels each row as a one-row predict and the vote loop
        do, on the computed and the bank_gram path."""
        model = self._fingerprint_model(n_classes=4, seed=3)
        X = np.random.default_rng(rows).uniform(-2.0, 10.0, size=(rows, 4))
        labels = model.predict(X)
        per_row = [model.predict(row.reshape(1, -1))[0] for row in X]
        np.testing.assert_array_equal(labels, per_row)
        np.testing.assert_array_equal(labels, vote_predict(model, X))
        Z = np.vstack([model._fit_X, X])
        queries = len(model._fit_X) + np.arange(rows)
        bank_gram = model.kernel(Z, Z)[np.ix_(model.sv_bank_indices_, queries)]
        np.testing.assert_array_equal(model.predict(X, bank_gram=bank_gram), labels)
        with pytest.raises(ValueError, match="bank_gram"):
            model.predict(X[:-1], bank_gram=bank_gram)

    def test_vote_ties_break_as_the_oracle_does(self):
        """Rows whose pairwise votes tie go to the larger summed signed
        decision (the tanh tie-break), in one batch and row by row, as
        the per-machine vote loop decides them."""
        # Three classes tie where their pairwise wins form a cycle;
        # this model has about 20 such rows among 5,000 queries.
        model = self._fingerprint_model(n_classes=3, seed=4)
        X = np.random.default_rng(11).uniform(-2.0, 10.0, size=(5000, 4))
        votes = np.zeros((len(X), len(model.classes_)))
        for (a, b), machine in model._machines.items():
            first = machine.decision_function(X) >= 0.0
            votes[first, a] += 1
            votes[~first, b] += 1
        leaders = votes == votes.max(axis=1, keepdims=True)
        tied = leaders.sum(axis=1) > 1
        assert tied.any()
        X, leaders = X[tied], leaders[tied]
        labels = model.predict(X)
        np.testing.assert_array_equal(labels, vote_predict(model, X))
        np.testing.assert_array_equal(
            labels, [model.predict(row.reshape(1, -1))[0] for row in X]
        )
        # Every label is one of its row's leaders, and the scores, not
        # class order alone, decide some of them.
        winners = np.searchsorted(model.classes_, labels)
        assert leaders[np.arange(len(X)), winners].all()
        assert (winners != leaders.argmax(axis=1)).any()
