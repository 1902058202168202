"""Fingerprint datasets and vectorisation.

A *fingerprint* is what the app uploads per scan cycle: a mapping from
beacon id to estimated distance (or filtered RSSI).  The server's
classifier needs fixed-width vectors, so :class:`FingerprintVectorizer`
assigns one column per beacon and fills unseen beacons with a sentinel
("very far" for distances, "very weak" for RSSI) - exactly what
fingerprinting systems do with missing access points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MISSING_DISTANCE_M",
    "MISSING_RSSI_DBM",
    "FingerprintVectorizer",
    "FingerprintDataset",
]

#: Sentinel distance for a beacon not seen in a cycle.
MISSING_DISTANCE_M = 30.0

#: Sentinel RSSI for a beacon not seen in a cycle.
MISSING_RSSI_DBM = -100.0


class FingerprintVectorizer:
    """Maps beacon-id -> value dicts to fixed-width feature rows.

    Args:
        beacon_ids: column order; fixed at construction so train and
            test vectors align.
        missing_value: fill for beacons absent from a fingerprint.
    """

    def __init__(
        self, beacon_ids: Sequence[str], missing_value: float = MISSING_DISTANCE_M
    ) -> None:
        if not beacon_ids:
            raise ValueError("need at least one beacon id")
        if len(set(beacon_ids)) != len(beacon_ids):
            raise ValueError(f"duplicate beacon ids: {list(beacon_ids)}")
        self.beacon_ids = list(beacon_ids)
        self.missing_value = float(missing_value)
        self._index = {b: i for i, b in enumerate(self.beacon_ids)}

    @property
    def n_features(self) -> int:
        """Number of feature columns (= number of beacons)."""
        return len(self.beacon_ids)

    def transform_one(self, fingerprint: Mapping[str, float]) -> np.ndarray:
        """One fingerprint to a feature row: a 1-row :meth:`transform`."""
        return self.transform([fingerprint])[0]

    def transform(self, fingerprints: Sequence[Mapping[str, float]]) -> np.ndarray:
        """A batch of fingerprints to an (n, features) matrix.

        The matrix is allocated once and filled with the missing
        value; each known beacon's value then lands in its column, and
        unknown beacons are ignored.
        """
        X = np.empty((len(fingerprints), self.n_features))
        X.fill(self.missing_value)
        index = self._index
        for row, fingerprint in zip(X, fingerprints):
            for beacon_id, value in fingerprint.items():
                column = index.get(beacon_id)
                if column is not None:
                    row[column] = float(value)
        return X


@dataclass
class FingerprintDataset:
    """Labelled fingerprints collected during the calibration walk.

    Attributes:
        fingerprints: one dict per sample (beacon_id -> value).
        labels: ground-truth room label per sample.
        times: optional collection time per sample.
    """

    fingerprints: List[Dict[str, float]] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    times: List[float] = field(default_factory=list)

    def add(
        self, fingerprint: Mapping[str, float], label: str, time: float = 0.0
    ) -> None:
        """Append one labelled sample."""
        self.fingerprints.append(dict(fingerprint))
        self.labels.append(label)
        self.times.append(float(time))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def classes(self) -> List[str]:
        """Distinct labels, sorted."""
        return sorted(set(self.labels))

    def beacon_ids(self) -> List[str]:
        """All beacon ids appearing in any fingerprint, sorted."""
        seen = set()
        for fp in self.fingerprints:
            seen.update(fp)
        return sorted(seen)

    def class_counts(self) -> Dict[str, int]:
        """Samples per label."""
        counts: Dict[str, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return counts

    def to_matrix(
        self, vectorizer: Optional[FingerprintVectorizer] = None
    ) -> Tuple[np.ndarray, np.ndarray, FingerprintVectorizer]:
        """Vectorise into ``(X, y, vectorizer)``.

        When no vectoriser is given, one is built over the beacons
        present in this dataset.
        """
        if vectorizer is None:
            vectorizer = FingerprintVectorizer(self.beacon_ids())
        X = vectorizer.transform(self.fingerprints)
        y = np.asarray(self.labels)
        return X, y, vectorizer

    def extend(self, other: "FingerprintDataset") -> None:
        """Append all samples of ``other``."""
        self.fingerprints.extend(dict(fp) for fp in other.fingerprints)
        self.labels.extend(other.labels)
        self.times.extend(other.times)
