"""Shared full-dataset Gram cache: the training-side fast path.

Training repeatedly evaluates the same kernel over row subsets of the
same dataset: one-vs-one fits one Gram per class pair, one-vs-rest one
per class, cross-validation one per fold, and grid search multiplies
all of that by the number of candidates sharing a kernel.  Every one
of those Grams is a submatrix of the *full-dataset* Gram, and because
all kernels in :mod:`repro.ml.kernels` are slice-stable (see
:func:`repro.ml.kernels.stable_dot`), slicing the full Gram is
bit-identical to computing the submatrix directly.

:class:`GramCache` computes the full Gram once per ``(kernel,
dataset)`` pair — keyed by kernel value and a content digest of the
data, so equal-parameter kernels and identical matrices share an entry
across estimator clones and process-pool workers — and hands out
row/column-sliced copies.  Models fitted through the cache are
byte-identical to models fitted without it; only the wall clock
changes.  Every gram-aware fit, refresh and CV fold takes the shared
Gram; the byte-identity tests and the training benchmark compare it
against a reference solver that computes each Gram per fit
(``tests/smo_oracle.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.ml.kernels import Kernel
from repro.obs import profiling

__all__ = [
    "GramCache",
    "default_cache",
    "observed",
    "shared_kernel",
]


def _dataset_digest(X: np.ndarray) -> Tuple[str, Tuple[int, ...]]:
    """Content key for a feature matrix: shape plus a byte digest.

    Hashing the bytes (rather than keying on ``id``) lets equal
    matrices share an entry across estimator clones, CV folds of
    different candidates, and pickled copies in pool workers.
    """
    data = np.ascontiguousarray(X)
    digest = hashlib.sha1(data.tobytes()).hexdigest()
    return digest, data.shape


class GramCache:
    """LRU cache of full-dataset Gram matrices.

    Args:
        max_entries: Gram matrices kept before the least recently used
            entry is evicted (each entry is ``n x n`` floats, so the
            bound is a memory guard, not a tuning knob).
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._slices: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.extends = 0
        self._registry = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/extend counters."""
        self._entries.clear()
        self._slices.clear()
        self.hits = 0
        self.misses = 0
        self.extends = 0

    def attach_registry(self, registry) -> None:
        """Publish cache activity to a telemetry registry (or detach).

        While attached, every hit/miss/extend increments the
        ``ml.gram.hits`` / ``ml.gram.misses`` / ``ml.gram.extends``
        counters and refreshes the ``ml.gram.hit_ratio`` gauge on
        ``registry``.  Pass ``None`` to detach.  Attachment is opt-in
        (the fleet wires it for profiled runs and the BMS for online
        refreshes) so default-path telemetry stays byte-identical with
        the cache observed or not.
        """
        self._registry = registry

    def _observe(self, event: str) -> None:
        registry = self._registry
        if registry is None:
            return
        registry.counter(f"ml.gram.{event}").inc()
        total = self.hits + self.misses
        if total:
            registry.gauge("ml.gram.hit_ratio").set(self.hits / total)

    def full(self, kernel: Kernel, X: np.ndarray) -> np.ndarray:
        """The full Gram ``kernel(X, X)``, computed once per key.

        The returned array is marked read-only: callers (and the SMO
        solver) only ever read it, and a silent in-place edit would
        poison every later fit sharing the entry.
        """
        X = np.asarray(X, dtype=float)
        try:
            key = (kernel, *_dataset_digest(X))
        except TypeError:  # unhashable kernel: compute, don't cache
            gram = np.asarray(kernel(X, X), dtype=float)
            gram.flags.writeable = False
            return gram
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._observe("hits")
            profiling.tick("ml.gram.full_hit")
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        self._observe("misses")
        with profiling.measure("ml.gram.full_miss"):
            gram = np.asarray(kernel(X, X), dtype=float)
        gram.flags.writeable = False
        self._entries[key] = gram
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return gram

    def extend(
        self, kernel: Kernel, X_old: np.ndarray, X_new: np.ndarray
    ) -> np.ndarray:
        """The full Gram of ``concat(X_old, X_new)`` by block assembly.

        When ``m`` new rows append to an ``n``-row dataset whose Gram
        is already cached, only the new cross block ``kernel(X_new,
        X)`` — ``m x (n + m)`` — is computed; the old ``n x n`` block
        is copied from the cache and the off-diagonal block is its
        transpose.  That is O(n*m) kernel work instead of the O(n^2)
        a fresh ``full`` costs.

        The assembled matrix is **bit-identical** to ``kernel(X, X)``
        computed directly: every kernel here builds its Gram from
        :func:`repro.ml.kernels.stable_dot` (row-pure, fixed reduction
        order) plus elementwise row/column norm terms, so each entry
        is a pure function of its two input rows — and IEEE addition
        commutes, making the transposed block equal bit for bit.  The
        result is registered under the concatenated dataset's key, so
        subsequent :meth:`full`/:meth:`sliced` calls on the extended
        dataset hit it.
        """
        X_old = np.asarray(X_old, dtype=float)
        X_new = np.asarray(X_new, dtype=float)
        if X_old.ndim != 2 or X_new.ndim != 2:
            raise ValueError(
                f"X_old/X_new must be 2-D, got {X_old.shape} / {X_new.shape}"
            )
        if X_old.shape[1] != X_new.shape[1]:
            raise ValueError(
                f"feature widths differ: {X_old.shape[1]} vs {X_new.shape[1]}"
            )
        if X_old.shape[0] == 0:
            return self.full(kernel, X_new)
        if X_new.shape[0] == 0:
            return self.full(kernel, X_old)
        X = np.concatenate([X_old, X_new], axis=0)
        try:
            key = (kernel, *_dataset_digest(X))
        except TypeError:  # unhashable kernel: compute, don't cache
            gram = np.asarray(kernel(X, X), dtype=float)
            gram.flags.writeable = False
            return gram
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._observe("hits")
            profiling.tick("ml.gram.full_hit")
            self._entries.move_to_end(key)
            return cached
        n = X_old.shape[0]
        old = self.full(kernel, X_old)
        with profiling.measure("ml.gram.extend"):
            new_rows = np.asarray(kernel(X_new, X), dtype=float)
            gram = np.empty((X.shape[0], X.shape[0]))
            gram[:n, :n] = old
            gram[n:, :] = new_rows
            gram[:n, n:] = new_rows[:, :n].T
        gram.flags.writeable = False
        self.extends += 1
        self._observe("extends")
        self._entries[key] = gram
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return gram

    def sliced(
        self, kernel: Kernel, X: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """``kernel(X[rows], X[rows])`` as a slice of the cached full Gram.

        Bit-identical to the direct computation because the kernels
        are slice-stable.  The extracted submatrix is itself cached
        (keyed by the row selection), so e.g. every grid-search
        candidate visiting the same CV fold reuses one copy instead of
        re-gathering an ``r x r`` block per candidate; like the full
        Gram it is therefore handed out read-only.
        """
        X = np.asarray(X, dtype=float)
        rows = np.asarray(rows, dtype=int)
        try:
            key = (kernel, *_dataset_digest(X), rows.tobytes())
        except TypeError:  # unhashable kernel: compute, don't cache
            sub = np.asarray(kernel(X, X), dtype=float)[np.ix_(rows, rows)]
            sub.flags.writeable = False
            return sub
        cached = self._slices.get(key)
        if cached is not None:
            self.hits += 1
            self._observe("hits")
            profiling.tick("ml.gram.slice_hit")
            self._slices.move_to_end(key)
            return cached
        with profiling.measure("ml.gram.slice_miss"):
            sub = self.full(kernel, X)[np.ix_(rows, rows)]
        sub.flags.writeable = False
        self._slices[key] = sub
        while len(self._slices) > 4 * self.max_entries:
            self._slices.popitem(last=False)
        return sub

    def stats(self) -> Dict[str, int]:
        """Hit/miss/extend/entry counters (for tests and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "extends": self.extends,
            "entries": len(self._entries),
        }


#: Per-process default cache: serial fits, CV folds, grid-search
#: candidates and pool workers all share it (each worker process gets
#: its own copy, warmed by the candidates it is handed).
_DEFAULT_CACHE = GramCache()


def default_cache() -> GramCache:
    """The process-wide cache the training paths consult."""
    return _DEFAULT_CACHE


@contextmanager
def observed(registry) -> Iterator[GramCache]:
    """Attach the default cache to ``registry`` for the block's span.

    The previous observer (usually none) is restored on exit, so
    nested or sequential runs never leak counters onto a stale
    registry.  Yields the cache for convenience.
    """
    cache = default_cache()
    previous = cache._registry
    cache.attach_registry(registry)
    try:
        yield cache
    finally:
        cache.attach_registry(previous)


def shared_kernel(estimator) -> Optional[Kernel]:
    """The kernel a precomputed-Gram fit of ``estimator`` would use.

    Estimators advertise gram-awareness by exposing ``gram_kernel()``
    (returning their kernel, or ``None`` when machines disagree);
    anything else — kNN, naive Bayes, proximity — opts out and is
    fitted through the ordinary path.
    """
    probe = getattr(estimator, "gram_kernel", None)
    if probe is None:
        return None
    return probe()
