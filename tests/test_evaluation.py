import json

import numpy as np
import pytest

from usvpipe import evaluation
from usvpipe.artifacts import write_json
from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.evaluation import (Prediction, PredictionSet, bootstrap_ci,
                                build_report, read_predictions_csv,
                                uar_from_labels, write_predictions_csv)
from usvpipe.seeding import rng_for


def preds_from(truth, pred):
    return PredictionSet([Prediction(f"u{i:03d}", t, p, 0)
                          for i, (t, p) in enumerate(zip(truth, pred))])


FOUR_POINT = preds_from(["A", "A", "B", "B"], ["A", "B", "B", "B"])
# the same outcomes under context labels, as predictions.csv holds them
CONTEXT_POINTS = preds_from(["biting", "biting", "feeding", "feeding"],
                            ["biting", "feeding", "feeding", "feeding"])


class TestUar:
    def test_all_correct_is_one(self):
        truth = ["A", "B", "B", "C", "C", "C"]
        assert uar_from_labels(truth, list(truth)) == 1.0

    def test_mixed_recalls(self):
        assert uar_from_labels(FOUR_POINT.true_labels,
                               FOUR_POINT.predicted_labels) == 0.75

    def test_constant_predictor_eleven_classes(self):
        labels = [f"c{i:02d}" for i in range(11)]
        truth = [lab for lab in labels for _ in range(3)]
        assert uar_from_labels(truth, ["c00"] * len(truth)) == pytest.approx(1.0 / 11.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no predictions to score"):
            uar_from_labels([], [])

    def test_invariant_to_duplicating_one_class(self):
        base = uar_from_labels(["A", "A", "B", "B", "B"], ["A", "B", "B", "B", "A"])
        dup = uar_from_labels(["A"] * 6 + ["B"] * 3, ["A", "B"] * 3 + ["B", "B", "A"])
        assert base == dup  # recalls 0.5 and 2/3 in both

    def test_equals_accuracy_for_balanced_classes(self):
        rng = np.random.default_rng(0)
        truth = ["A"] * 40 + ["B"] * 40
        pred = [t if rng.random() < 0.7 else ("B" if t == "A" else "A")
                for t in truth]
        accuracy = np.mean([t == p for t, p in zip(truth, pred)])
        assert uar_from_labels(truth, pred) == pytest.approx(accuracy)

    def test_uar_from_labels_matches(self):
        assert uar_from_labels(["A", "A", "B", "B"], ["A", "B", "B", "B"]) == 0.75


class TestBootstrap:
    def test_all_correct_ci_is_degenerate(self):
        ps = preds_from(["A", "B"], ["A", "B"])
        assert bootstrap_ci(ps, seed=0) == (1.0, 1.0)

    def test_single_correct_prediction(self):
        ps = preds_from(["A"], ["A"])
        assert bootstrap_ci(ps, seed=5) == (1.0, 1.0)

    def test_deterministic_per_seed(self):
        assert bootstrap_ci(FOUR_POINT, seed=42) == bootstrap_ci(FOUR_POINT, seed=42)

    def test_frozen_regression_values(self):
        # pinned from a seeded run of this implementation
        assert bootstrap_ci(FOUR_POINT, seed=42) == (0.5, 1.0)
        truth = ["A"] * 20 + ["B"] * 12 + ["C"] * 8
        pred = (["A"] * 16 + ["B"] * 3 + ["C"] * 1 + ["B"] * 9 + ["A"] * 3
                + ["C"] * 5 + ["B"] * 3)
        ps = preds_from(truth, pred)
        assert uar_from_labels(truth, pred) == 0.725  # recalls 0.8, 0.75, 0.625 by hand
        lo, hi = bootstrap_ci(ps, seed=2024)
        assert lo == pytest.approx(0.5599583333333333, abs=1e-15)
        assert hi == pytest.approx(0.8777916666666666, abs=1e-15)

    def test_bounds_ordered_and_in_range(self):
        lo, hi = bootstrap_ci(FOUR_POINT, seed=7)
        assert 0.0 <= lo <= hi <= 1.0

    @pytest.mark.parametrize("stack_items", [1, 50, 1 << 16])
    def test_stacked_replicates_equal_the_per_replicate_loop(self, monkeypatch,
                                                            stack_items):
        # class E has one instance, so most replicates miss it (the NaN path)
        truth = list("AAAAABBBBCCCDDE")
        pred = list("ABAAABBCBCCADDA")
        ps = preds_from(truth, pred)
        y_true, y_pred, order = evaluation._encode(ps.true_labels,
                                                   ps.predicted_labels)
        stats = np.empty(evaluation.BOOTSTRAP_REPLICATES)
        missed = 0
        for r in range(evaluation.BOOTSTRAP_REPLICATES):
            idx = rng_for(3, r).integers(0, len(y_true), size=len(y_true))
            recalls = evaluation._recalls(y_true[idx], y_pred[idx], len(order))
            missed += bool(np.isnan(recalls).any())
            stats[r] = np.nanmean(recalls)
        assert 100 < missed < evaluation.BOOTSTRAP_REPLICATES
        # several stacks, the last one short, or every replicate in one
        monkeypatch.setattr(evaluation, "_BOOTSTRAP_STACK_ITEMS", stack_items)
        low, high = np.percentile(stats, evaluation.CI_PERCENTILES)
        assert bootstrap_ci(ps, seed=3) == (float(low), float(high))


class TestConfusion:
    def test_perfect_predictions_identity(self, monkeypatch):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 10)
        ps = preds_from(["A", "B", "C"], ["A", "B", "C"])
        report = build_report(ps)
        np.testing.assert_array_equal(report["confusion_row_normalised"], np.eye(3))
        assert report["labels"] == ["A", "B", "C"]

    def test_row_normalised_counts(self, monkeypatch):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 10)
        report = build_report(FOUR_POINT)
        assert report["confusion_row_normalised"] == [[0.5, 0.5], [0.0, 1.0]]

    def test_rows_sum_to_one_or_zero(self, monkeypatch):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 10)
        rng = np.random.default_rng(1)
        labels = list("ABCDE")
        truth = [labels[i] for i in rng.integers(0, 4, 200)]  # E never true
        pred = [labels[i] for i in rng.integers(0, 5, 200)]
        report = build_report(preds_from(truth, pred))
        assert report["labels"] == labels
        assert report["per_class_recall"]["E"] is None
        matrix = np.array(report["confusion_row_normalised"])
        np.testing.assert_array_equal(matrix[4], 0.0)
        for s in matrix[:4].sum(axis=1):
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_mean_equals_uar(self, monkeypatch):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 10)
        rng = np.random.default_rng(2)
        labels = list("ABC")
        truth = [labels[i] for i in rng.integers(0, 3, 120)]
        pred = [labels[i] for i in rng.integers(0, 3, 120)]
        report = build_report(preds_from(truth, pred))
        assert np.diag(report["confusion_row_normalised"]).mean() == pytest.approx(
            uar_from_labels(truth, pred))


class TestReportAndCsv:
    def test_report_fields_consistent(self, monkeypatch, tmp_path):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 200)
        report = build_report(FOUR_POINT, seed=1)
        assert report == {
            "n": 4, "uar": 0.75, "ci_95": list(bootstrap_ci(FOUR_POINT, seed=1)),
            "labels": ["A", "B"], "per_class_recall": {"A": 0.5, "B": 1.0},
            "confusion_row_normalised": [[0.5, 0.5], [0.0, 1.0]]}
        write_json(tmp_path / "report.json", report)
        assert json.loads((tmp_path / "report.json").read_text()) == report

    @pytest.mark.parametrize("where", ["report", "provenance"])
    def test_report_json_refuses_nan(self, where, monkeypatch, tmp_path):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 20)
        report = build_report(FOUR_POINT, seed=1)
        provenance = {"max_relative_gap": {"0": 1e-5}}
        if where == "report":
            report["ci_95"][1] = float("nan")
        else:
            provenance["max_relative_gap"]["1"] = float("nan")
        with pytest.raises(ValueError):
            write_json(tmp_path / "report.json", {**report, "provenance": provenance})
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet([Prediction("u1", "A", "A", 0),
                           Prediction("u1", "A", "B", 1)])

    def test_predictions_csv_roundtrip(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, CONTEXT_POINTS, comment="x")
        back = read_predictions_csv(path)
        assert back.records == CONTEXT_POINTS.records

    @staticmethod
    def _refusal(path, old, new):
        """read_predictions_csv's refusal, as text, of CONTEXT_POINTS written to
        path with old replaced by new in the row of u001 (line 4: a stamp
        line, the header, u000, u001)."""
        write_predictions_csv(path, CONTEXT_POINTS, comment="x")
        lines = path.read_text().splitlines(keepends=True)
        assert old in lines[3]
        lines[3] = lines[3].replace(old, new)
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as refusal:
            read_predictions_csv(path)
        return str(refusal.value)

    def test_predictions_csv_fold_that_is_no_integer_names_file_and_utterance(
            self, tmp_path):
        path = tmp_path / "preds.csv"
        assert self._refusal(path, "u001,0,", "u001,x,") == (
            f"{path}:4: fold 'x' is not one of 0, 1, 2")

    # a fold is written as str(int) writes it, and read back only so
    @pytest.mark.parametrize("fold", ["-7", "3", " 1", "01", "+1"])
    def test_predictions_csv_fold_outside_the_plan_names_file_and_utterance(
            self, tmp_path, fold):
        path = tmp_path / "preds.csv"
        assert self._refusal(path, "u001,0,", f"u001,{fold},") == (
            f"{path}:4: fold {fold!r} is not one of 0, 1, 2")

    @pytest.mark.parametrize("new, bad", [(",nonsense,feeding", "true 'nonsense'"),
                                          (",biting,Feeding", "predicted 'Feeding'")],
                             ids=["true", "predicted"])
    def test_predictions_csv_label_outside_the_contexts_names_file_and_utterance(
            self, tmp_path, new, bad):
        path = tmp_path / "preds.csv"
        assert self._refusal(path, ",biting,feeding", new) == (
            f"{path}:4: {bad} is not one of {', '.join(CONTEXT_LABELS)}")

    @pytest.mark.parametrize("uid, reason", [("", "is blank"),
                                             ("../x", "is not a plain file name")])
    def test_predictions_csv_id_that_cannot_name_a_file_names_file_and_line(
            self, tmp_path, uid, reason):
        path = tmp_path / "preds.csv"
        assert self._refusal(path, "u001,", f"{uid},") == (
            f"{path}:4: utterance_id {uid!r} {reason}")

    def test_predictions_csv_repeated_utterance_names_file_and_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        assert self._refusal(path, "u001,", "u000,") == (
            f"{path}:4: utterance_id 'u000' is already used on line 3")
