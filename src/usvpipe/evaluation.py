"""Imbalance-aware evaluation: UAR, bootstrap confidence intervals, confusion.

UAR (unweighted average recall, a.k.a. balanced accuracy) is the mean of
per-class recalls over the classes actually present.  Confidence intervals
come from the percentile bootstrap: full-size resamples with replacement,
each replicate's UAR averaged over the classes present in that replicate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_table, write_table
from .exceptions import EmptyPredictionsError
from .seeding import rng_for

BOOTSTRAP_REPLICATES = 1000
CI_PERCENTILES = (2.5, 97.5)
PREDICTIONS_CSV_HEADER = ("utterance_id", "fold", "true", "predicted")


@dataclass(frozen=True)
class Prediction:
    utterance_id: str
    true_label: str
    predicted_label: str
    fold: int


class PredictionSet:
    """Pooled per-utterance predictions; utterance ids must be unique."""

    def __init__(self, records: Sequence[Prediction]):
        ids = [r.utterance_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate utterance ids in prediction set")
        self.records = tuple(sorted(records, key=lambda r: r.utterance_id))
        self.true_labels = tuple(r.true_label for r in self.records)
        self.predicted_labels = tuple(r.predicted_label for r in self.records)

    def __len__(self) -> int:
        return len(self.records)


def _encode(y_true: Sequence[str], y_pred: Sequence[str], labels: Sequence[str] | None,
            ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Class indices into labels, by default the sorted observed labels."""
    if len(y_true) == 0:
        raise EmptyPredictionsError("no predictions to score")
    order = tuple(labels if labels is not None else sorted(set(y_true) | set(y_pred)))
    index = {lab: i for i, lab in enumerate(order)}
    try:
        t = np.array([index[v] for v in y_true])
        p = np.array([index[v] for v in y_pred])
    except KeyError as exc:
        raise ValueError(f"label {exc} not in the supplied label order") from exc
    return t, p, order


def _recalls(y_true: np.ndarray, y_pred: np.ndarray, k: int) -> np.ndarray:
    """Per-class recall; NaN for classes with no instances."""
    totals = np.bincount(y_true, minlength=k).astype(float)
    correct = np.bincount(y_true[y_true == y_pred], minlength=k).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, correct / totals, np.nan)


def uar(preds: PredictionSet) -> float:
    """Mean recall over the classes present in the true labels."""
    return uar_from_labels(preds.true_labels, preds.predicted_labels)


def uar_from_labels(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    """UAR over plain label sequences (no ids); used for model selection."""
    t, p, order = _encode(y_true, y_pred, None)
    return float(np.nanmean(_recalls(t, p, len(order))))


def bootstrap_ci(preds: PredictionSet, replicates: int = BOOTSTRAP_REPLICATES,
                 seed: int = 0, labels: Sequence[str] | None = None,
                 ) -> tuple[float, float]:
    """Percentile bootstrap 95% CI of the UAR.

    Each replicate resamples len(preds) predictions with replacement and
    averages recall over the classes present in that replicate; the CI is
    the 2.5th/97.5th percentile (linear interpolation).  Replicate streams
    derive from (seed, replicate index), so the result is reproducible and
    replicates could be evaluated concurrently.
    """
    y_true, y_pred, order = _encode(preds.true_labels, preds.predicted_labels, labels)
    n, k = len(y_true), len(order)
    stats = np.empty(replicates)
    for r in range(replicates):
        idx = rng_for(seed, r).integers(0, n, size=n)
        stats[r] = np.nanmean(_recalls(y_true[idx], y_pred[idx], k))
    low, high = np.percentile(stats, CI_PERCENTILES)
    return float(low), float(high)


def confusion(preds: PredictionSet, labels: Sequence[str] | None = None,
              ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Row-normalised confusion matrix in a fixed alphabetical label order.

    Entry (r, c) is the fraction of class r predicted as class c; rows for
    classes with no test instances are all zero.
    """
    y_true, y_pred, order = _encode(preds.true_labels, preds.predicted_labels, labels)
    k = len(order)
    counts = np.bincount(y_true * k + y_pred, minlength=k * k).reshape(k, k).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    return matrix, order


@dataclass(frozen=True)
class EvaluationReport:
    """Pooled-prediction summary: UAR, CI, per-class recalls, confusion."""

    labels: tuple[str, ...]
    uar: float
    ci_low: float
    ci_high: float
    per_class_recall: dict[str, float | None]
    confusion: list[list[float]]
    n: int


def build_report(preds: PredictionSet, labels: Sequence[str] | None = None,
                 replicates: int = BOOTSTRAP_REPLICATES, seed: int = 0,
                 ) -> EvaluationReport:
    y_true, y_pred, order = _encode(preds.true_labels, preds.predicted_labels, labels)
    recalls = _recalls(y_true, y_pred, len(order))
    matrix, _ = confusion(preds, order)
    low, high = bootstrap_ci(preds, replicates=replicates, seed=seed, labels=order)
    per_class = {lab: (None if np.isnan(rec) else float(rec))
                 for lab, rec in zip(order, recalls)}
    return EvaluationReport(
        labels=order,
        uar=float(np.nanmean(recalls)),
        ci_low=low,
        ci_high=high,
        per_class_recall=per_class,
        confusion=[[float(v) for v in row] for row in matrix],
        n=len(preds),
    )


def report_to_json(report: EvaluationReport, provenance: dict | None = None) -> str:
    payload = {
        "n": report.n,
        "uar": report.uar,
        "ci_95": [report.ci_low, report.ci_high],
        "labels": list(report.labels),
        "per_class_recall": report.per_class_recall,
        "confusion_row_normalised": report.confusion,
    }
    if provenance:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_confusion_csv(path: str | Path, report: EvaluationReport,
                        comment: str | None = None) -> None:
    write_table(path, ("true\\pred",) + report.labels,
                ((lab,) + tuple(format(v, ".6g") for v in row)
                 for lab, row in zip(report.labels, report.confusion)), comment)


def write_predictions_csv(path: str | Path, preds: PredictionSet,
                          comment: str | None = None) -> None:
    write_table(path, PREDICTIONS_CSV_HEADER,
                ((r.utterance_id, r.fold, r.true_label, r.predicted_label)
                 for r in preds.records), comment)


def read_predictions_csv(path: str | Path) -> PredictionSet:
    return PredictionSet([Prediction(uid, true_label, predicted, int(fold))
                          for uid, fold, true_label, predicted
                          in read_table(path, PREDICTIONS_CSV_HEADER)])
