"""The reference SMO solver: the byte-identity oracle for training.

:class:`repro.ml.svm.BinarySVM` takes two shortcuts that must not
change a single bit of a fitted model: its working-set scan hops over
KKT non-violators in bulk, and its heuristic-2/3 partner cascade
skips provably hopeless partners in bulk.  Its one-vs-one,
one-vs-rest and cross-validation callers also slice every Gram out of
one shared full-dataset Gram (:mod:`repro.ml.gram_cache`).

This module is the solver without any of that: one Python examine
per index, plain heuristic loops over random permutations, and a
Gram computed per fit.  The classes override only those pieces and
inherit ``_take_step`` and the rest of the solver, so a test that
fits the same data both ways and compares alphas, intercepts and
support indices pins exactly the shortcuts.  The tests and
``benchmarks/test_perf_svm_train.py`` use it as their reference.

:func:`vote_predict` is the matching oracle for prediction: each
machine's own ``decision_function`` and a per-machine vote loop, with
none of the shared support-vector bank's matrix products.
"""

import numpy as np

from repro.ml.svm import BinarySVM, SupportVectorClassifier

__all__ = ["ReferenceBinarySVM", "ReferenceSVC", "vote_predict"]


class ReferenceBinarySVM(BinarySVM):
    """:class:`BinarySVM` with the per-index scan and plain partner loops."""

    def fit(self, X, y, *, gram=None):
        """Train on ``X``, computing ``kernel(X, X)`` whatever ``gram`` is."""
        return super().fit(X, y)

    def _scan(self, indices, iterations):
        """Working-set pass: one Python examine per index."""
        changed = 0
        for i in indices:
            changed += self._examine(int(i))
            iterations += 1
            if iterations >= self.max_iter:
                break
        return changed, iterations

    def _examine_rest_bulk(self, i2, e2, non_bound):
        """Heuristics 2 and 3, every partner tried by a scalar step."""
        # Heuristic 2: all non-bound examples in random order.
        for i1 in self._rng.permutation(non_bound):
            if i1 != i2 and self._take_step(int(i1), i2):
                return 1
        # Heuristic 3: everything else in random order.  Heuristic 2
        # already tried every non-bound index and _take_step mutates
        # nothing when it fails, so retrying them here cannot succeed;
        # skip them without changing the RNG draw (the permutation is
        # still taken over the full index range).
        is_non_bound = np.zeros(len(self._alpha), dtype=bool)
        is_non_bound[non_bound] = True
        for i1 in self._rng.permutation(len(self._alpha)):
            if (
                i1 != i2
                and not is_non_bound[i1]
                and self._take_step(int(i1), i2)
            ):
                return 1
        return 0


class ReferenceSVC(SupportVectorClassifier):
    """One-vs-one over :class:`ReferenceBinarySVM` machines.

    Each pair's machine computes its own pair Gram, and the
    classifier is not gram-aware (``gram_kernel()`` is ``None``), so
    cross-validation and grid search fit and score its folds without
    the shared Gram.  Only ``fit`` is the reference path.
    """

    def clone(self):
        return ReferenceSVC(**self.get_params())

    def gram_kernel(self):
        return None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = sorted(set(y.tolist()))
        self._machines = {}
        sv_global = {}
        for a in range(len(self.classes_)):
            for b in range(a + 1, len(self.classes_)):
                mask = (y == self.classes_[a]) | (y == self.classes_[b])
                pair_rows = np.flatnonzero(mask)
                X_pair = X[mask]
                y_pair = np.where(y[mask] == self.classes_[a], 1.0, -1.0)
                machine = ReferenceBinarySVM(
                    c=self.c,
                    kernel=self.kernel,
                    tol=self.tol,
                    max_passes=self.max_passes,
                    max_iter=self.max_iter,
                    seed=self.seed,
                )
                machine.fit(X_pair, y_pair)
                self._machines[(a, b)] = machine
                sv_global[(a, b)] = pair_rows[machine.support_indices_]
        self._build_sv_bank(X, sv_global)
        return self


def vote_predict(model, X):
    """One-vs-one labels of ``X`` by a vote loop over ``model``'s machines.

    The same rule as :meth:`SupportVectorClassifier.predict`: a pair
    votes for its first class where its decision is >= 0, ties go to
    the larger summed signed decision, then to class order.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    votes = np.zeros((n, len(model.classes_)))
    scores = np.zeros((n, len(model.classes_)))
    for (a, b), machine in model._machines.items():
        decision = machine.decision_function(X)
        winner_a = decision >= 0.0
        votes[winner_a, a] += 1
        votes[~winner_a, b] += 1
        scores[:, a] += decision
        scores[:, b] -= decision
    ranking = votes + 1e-9 * np.tanh(scores)
    return np.asarray([model.classes_[w] for w in np.argmax(ranking, axis=1)])
