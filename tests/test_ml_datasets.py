"""Tests for fingerprint datasets and vectorisation."""

import numpy as np
import pytest

from repro.ml.datasets import (
    MISSING_DISTANCE_M,
    FingerprintDataset,
    FingerprintVectorizer,
)


class TestVectorizer:
    def test_column_order_fixed(self):
        vec = FingerprintVectorizer(["b", "a"])
        row = vec.transform_one({"a": 1.0, "b": 2.0})
        np.testing.assert_allclose(row, [2.0, 1.0])

    def test_missing_filled(self):
        vec = FingerprintVectorizer(["a", "b"], missing_value=30.0)
        row = vec.transform_one({"a": 5.0})
        np.testing.assert_allclose(row, [5.0, 30.0])

    def test_unknown_beacons_ignored(self):
        vec = FingerprintVectorizer(["a"])
        row = vec.transform_one({"a": 1.0, "zzz": 9.0})
        assert row.shape == (1,)

    @pytest.mark.parametrize(
        "fingerprints",
        [
            [{"a": 1.0}, {"b": 2.0}],
            # Ragged rows: a beacon missing from some of them.
            [{"a": 1.5, "b": 2.5}, {"b": 0.25}, {"a": 7.0}, {}],
            # Unknown ids beside known ones, and alone.
            [{"zz": 9.0, "a": 3.0}, {"zz": 1.0}, {"b": 4.0, "yy": -1.0}],
            # Int values widen to floats.
            [{"a": 2, "b": 0}, {"b": 11}],
            # The empty batch.
            [],
        ],
    )
    def test_batch_transform(self, fingerprints):
        vec = FingerprintVectorizer(["a", "b"])
        X = vec.transform(fingerprints)
        assert X.shape == (len(fingerprints), 2)
        assert X.dtype == np.float64
        expected = [
            [float(fp.get(b, MISSING_DISTANCE_M)) for b in ("a", "b")]
            for fp in fingerprints
        ]
        np.testing.assert_array_equal(X, np.reshape(expected, (-1, 2)))
        stacked = np.vstack(
            [np.empty((0, 2))] + [vec.transform([fp]) for fp in fingerprints]
        )
        assert X.tobytes() == stacked.tobytes()
        for fp, row in zip(fingerprints, X):
            assert vec.transform_one(fp).tobytes() == vec.transform([fp])[0].tobytes()
            assert vec.transform_one(fp).tobytes() == row.tobytes()

    def test_empty_batch(self):
        vec = FingerprintVectorizer(["a", "b"])
        assert vec.transform([]).shape == (0, 2)

    def test_rejects_empty_beacon_list(self):
        with pytest.raises(ValueError):
            FingerprintVectorizer([])

    def test_rejects_duplicate_beacons(self):
        with pytest.raises(ValueError):
            FingerprintVectorizer(["a", "a"])

    def test_default_missing_is_30m(self):
        assert FingerprintVectorizer(["a"]).missing_value == MISSING_DISTANCE_M


class TestDataset:
    def test_add_and_len(self):
        data = FingerprintDataset()
        data.add({"a": 1.0}, "kitchen", 0.0)
        data.add({"b": 2.0}, "living", 2.0)
        assert len(data) == 2

    def test_classes_sorted(self):
        data = FingerprintDataset()
        data.add({"a": 1.0}, "z")
        data.add({"a": 1.0}, "a")
        assert data.classes == ["a", "z"]

    def test_beacon_ids_union(self):
        data = FingerprintDataset()
        data.add({"a": 1.0}, "x")
        data.add({"b": 1.0, "c": 2.0}, "y")
        assert data.beacon_ids() == ["a", "b", "c"]

    def test_class_counts(self):
        data = FingerprintDataset()
        for _ in range(3):
            data.add({"a": 1.0}, "x")
        data.add({"a": 1.0}, "y")
        assert data.class_counts() == {"x": 3, "y": 1}

    def test_to_matrix_builds_vectorizer(self):
        data = FingerprintDataset()
        data.add({"a": 1.0}, "x")
        data.add({"b": 2.0}, "y")
        X, y, vec = data.to_matrix()
        assert X.shape == (2, 2)
        assert list(y) == ["x", "y"]
        assert vec.beacon_ids == ["a", "b"]

    def test_to_matrix_with_shared_vectorizer(self):
        data = FingerprintDataset()
        data.add({"a": 1.0}, "x")
        vec = FingerprintVectorizer(["a", "b", "c"])
        X, _, _ = data.to_matrix(vec)
        assert X.shape == (1, 3)

    def test_extend(self):
        a = FingerprintDataset()
        a.add({"x": 1.0}, "r1")
        b = FingerprintDataset()
        b.add({"y": 2.0}, "r2")
        a.extend(b)
        assert len(a) == 2
        # Deep copy: mutating b's dict must not affect a.
        b.fingerprints[0]["y"] = 99.0
        assert a.fingerprints[1]["y"] == 2.0

    def test_fingerprints_copied_on_add(self):
        data = FingerprintDataset()
        source = {"a": 1.0}
        data.add(source, "x")
        source["a"] = 99.0
        assert data.fingerprints[0]["a"] == 1.0
