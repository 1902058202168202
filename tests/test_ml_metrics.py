"""Tests for accuracy and the confusion matrix."""

import pytest

from repro.ml.metrics import ConfusionMatrix, accuracy_score


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score(["a", "b"], ["a", "b"]) == 1.0

    def test_half(self):
        assert accuracy_score(["a", "b"], ["a", "c"]) == 0.5

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            accuracy_score(["a"], ["a", "b"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])


class TestConfusionMatrix:
    def simple(self):
        y_true = ["k", "k", "k", "l", "l", "o"]
        y_pred = ["k", "k", "l", "l", "l", "k"]
        return ConfusionMatrix(y_true, y_pred, labels=["k", "l", "o"])

    def test_total(self):
        assert self.simple().total == 6

    def test_accuracy(self):
        assert self.simple().accuracy == pytest.approx(4 / 6)

    def test_count(self):
        cm = self.simple()
        assert cm.count("k", "k") == 2
        assert cm.count("k", "l") == 1
        assert cm.count("o", "k") == 1

    def test_false_positives(self):
        """FP for k: predicted k while truly elsewhere (the 'o')."""
        assert self.simple().false_positives("k") == 1

    def test_false_negatives(self):
        """FN for k: truly k but predicted elsewhere."""
        assert self.simple().false_negatives("k") == 1

    def test_precision_recall(self):
        cm = self.simple()
        assert cm.precision("k") == pytest.approx(2 / 3)
        assert cm.recall("k") == pytest.approx(2 / 3)

    def test_f1(self):
        cm = self.simple()
        assert cm.f1("k") == pytest.approx(2 / 3)

    def test_precision_of_never_predicted_label(self):
        cm = ConfusionMatrix(["a", "b"], ["a", "a"], labels=["a", "b"])
        assert cm.precision("b") == 0.0

    def test_recall_of_absent_label(self):
        cm = ConfusionMatrix(["a", "a"], ["a", "b"], labels=["a", "b", "c"])
        assert cm.recall("c") == 0.0

    def test_room_fp_fn_totals_excludes_outside(self):
        cm = self.simple()
        totals = cm.room_fp_fn_totals(outside_label="o")
        # Rooms are k and l.  FP(k)=1 ('o' predicted k), FP(l)=1 (a 'k'
        # predicted l); FN(k)=1, FN(l)=0.
        assert totals == {"false_positives": 2, "false_negatives": 1}

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(["a"], ["a", "b"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfusionMatrix([], [])

    def test_rejects_unknown_labels(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(["a"], ["z"], labels=["a"])

    def test_default_labels_are_sorted_union(self):
        cm = ConfusionMatrix(["b"], ["a"])
        assert cm.labels == ["a", "b"]

    def test_to_text_contains_counts(self):
        text = self.simple().to_text()
        assert "k" in text and "2" in text

    def test_matrix_sums_match_sample_count(self):
        cm = self.simple()
        assert int(cm.matrix.sum()) == 6
