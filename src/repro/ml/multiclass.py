"""Generic multiclass reductions over binary classifiers.

:class:`SupportVectorClassifier` bakes in one-vs-one (the libsvm
scheme); this module provides the *one-vs-rest* alternative as a
generic wrapper, so the two reduction strategies can be compared on
the occupancy problem.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ml import gram_cache
from repro.ml.kernels import Kernel
from repro.ml.svm import BinarySVM, SupportVectorBank

__all__ = ["OneVsRestClassifier"]

#: Factory producing a fresh binary classifier with a
#: ``fit(X, y in {-1,+1})`` / ``decision_function(X)`` interface.
BinaryFactory = Callable[[], BinarySVM]


class OneVsRestClassifier:
    """One-vs-rest reduction: one binary machine per class.

    Each machine separates its class (+1) from everything else (-1);
    prediction takes the class whose machine reports the largest
    decision value.

    Args:
        factory: builds one fresh :class:`BinarySVM` per class;
            defaults to a :class:`BinarySVM` with its default RBF
            kernel.  Every machine it builds must share one kernel
            (:meth:`fit` refuses anything else), so one Gram trains
            them all and one support-vector bank decides for them all.
    """

    def __init__(self, factory: Optional[BinaryFactory] = None) -> None:
        self.factory = factory if factory is not None else BinarySVM
        self.classes_: List = []
        self._machines: Dict = {}
        self._bank: Optional[SupportVectorBank] = None
        # Training data retained for incremental refresh (see refresh()).
        self._fit_X: Optional[np.ndarray] = None
        self._fit_y: Optional[np.ndarray] = None

    def get_params(self) -> dict:
        """Constructor parameters (for grid search cloning)."""
        return {"factory": self.factory}

    def clone(self) -> "OneVsRestClassifier":
        """An unfitted copy with the same factory."""
        return OneVsRestClassifier(self.factory)

    def gram_kernel(self) -> Kernel:
        """The kernel shared by this factory's machines.

        Every one-vs-rest machine trains on the *same* rows (all of
        ``X``), so a single full-dataset Gram serves all of them.
        """
        return self.factory().kernel

    def fit(
        self,
        X: np.ndarray,
        y: Sequence,
        *,
        gram: Optional[np.ndarray] = None,
    ) -> "OneVsRestClassifier":
        """Train one class-vs-rest machine per label.

        All machines share one ``kernel(X, X)`` Gram — passed in via
        ``gram`` or fetched from the process-wide cache — instead of
        each computing its own; the fitted machines are byte-identical
        either way.

        Args:
            X: feature matrix.
            y: class labels.
            gram: optional precomputed full-dataset Gram.

        Raises:
            ValueError: mismatched shapes, fewer than two classes, or a
                factory whose machines are not :class:`BinarySVM`
                instances sharing one kernel.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        self.classes_ = sorted(set(y.tolist()))
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        machines = [self.factory() for _ in self.classes_]
        kernel = getattr(machines[0], "kernel", None)
        if not all(
            isinstance(m, BinarySVM) and m.kernel == kernel for m in machines
        ):
            raise ValueError(
                "one-vs-rest needs a factory of BinarySVMs that share one kernel"
            )
        n = X.shape[0]
        if gram is None:
            gram = gram_cache.default_cache().full(kernel, X)
        else:
            gram = np.asarray(gram, dtype=float)
            if gram.shape != (n, n):
                raise ValueError(
                    f"gram must have shape {(n, n)}, got {gram.shape}"
                )
        self._machines = {}
        for cls, machine in zip(self.classes_, machines):
            machine.fit(X, np.where(y == cls, 1.0, -1.0), gram=gram)
            self._machines[cls] = machine
        self._build_sv_bank(X, kernel)
        self._fit_X = X
        self._fit_y = y
        return self

    def refresh(
        self, new_X: np.ndarray, new_y: Sequence
    ) -> "OneVsRestClassifier":
        """Refit on the original data plus appended ``(new_X, new_y)``.

        One-vs-rest machines each train on *every* row, so unlike the
        one-vs-one :meth:`repro.ml.svm.SupportVectorClassifier.refresh`
        no machine can be reused — the win here is the Gram: the
        concatenated dataset's full Gram is assembled from the cached
        old block via :meth:`repro.ml.gram_cache.GramCache.extend`
        (O(n*m) new kernel work) and shared by all machines.  The
        result is byte-identical to a cold ``fit`` on the concatenated
        dataset.
        """
        if self._bank is None:
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
            return self
        if new_X.shape[1] != self._fit_X.shape[1]:
            raise ValueError(
                f"new_X has {new_X.shape[1]} features, "
                f"expected {self._fit_X.shape[1]}"
            )
        X = np.concatenate([self._fit_X, new_X], axis=0)
        y = np.concatenate([self._fit_y, new_y], axis=0)
        gram = gram_cache.default_cache().extend(
            self._bank.kernel, self._fit_X, new_X
        )
        return self.fit(X, y, gram=gram)

    def _build_sv_bank(self, X: np.ndarray, kernel: Kernel) -> None:
        """Fold the per-class machines into one :class:`SupportVectorBank`.

        The machines all train on the full ``X``, so their support
        indices address the same rows; :meth:`decision_matrix` then
        takes one Gram per batch instead of one per class (as the
        one-vs-one :class:`repro.ml.svm.SupportVectorClassifier` does).
        """
        machines = [self._machines[cls] for cls in self.classes_]
        self._bank = SupportVectorBank(
            kernel, X, machines, [m.support_indices_ for m in machines]
        )
        #: Training-set row of each bank vector (see the matching
        #: attribute on SupportVectorClassifier).
        self.sv_bank_indices_ = self._bank.rows

    def decision_matrix(
        self,
        X: np.ndarray,
        *,
        bank_gram: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-class decision values, shape ``(n, n_classes)``.

        Row-pure: a row's decisions are bitwise the same in any batch
        (:meth:`SupportVectorBank.decisions`).  ``bank_gram``
        optionally supplies a precomputed ``kernel(bank, X)`` (e.g.
        sliced from a cached full-dataset Gram); slice-stable kernels
        make the output identical.
        """
        if self._bank is None:
            raise RuntimeError("OneVsRestClassifier is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return self._bank.decisions(X, bank_gram)

    def predict(
        self,
        X: np.ndarray,
        *,
        bank_gram: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Class with the largest decision value per row."""
        winners = np.argmax(
            self.decision_matrix(X, bank_gram=bank_gram), axis=1
        )
        return np.asarray([self.classes_[w] for w in winners])

    def score(
        self,
        X: np.ndarray,
        y: Sequence,
        *,
        bank_gram: Optional[np.ndarray] = None,
    ) -> float:
        """Mean accuracy on ``(X, y)`` (``bank_gram`` as in predict)."""
        return float(
            np.mean(self.predict(X, bank_gram=bank_gram) == np.asarray(y))
        )
