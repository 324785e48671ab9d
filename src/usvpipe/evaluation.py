"""Imbalance-aware evaluation: UAR, bootstrap confidence intervals, confusion.

UAR (unweighted average recall, a.k.a. balanced accuracy) is the mean of
per-class recalls over the classes actually present.  Confidence intervals
come from the percentile bootstrap: full-size resamples with replacement,
each replicate's UAR averaged over the classes present in that replicate.
build_report returns report.json's record as the plain dict the file holds
beside its provenance, so the record re-derives from predictions.csv and the
run's seed by one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import plain_name, read_table, write_table
from .corpus import CONTEXT_LABELS
from .partition import FOLDS
from .seeding import rng_for

BOOTSTRAP_REPLICATES = 1000
# Resampled indices stacked per bincount: 512 KB of int64, so a 35k-row
# prediction set takes 500-odd stacks instead of one 280 MB array.
_BOOTSTRAP_STACK_ITEMS = 1 << 16
CI_PERCENTILES = (2.5, 97.5)
PREDICTIONS_CSV_COLUMNS = {"utterance_id": plain_name, "fold": FOLDS,
                           "true": CONTEXT_LABELS, "predicted": CONTEXT_LABELS}


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


def _encode(y_true: Sequence[str], y_pred: Sequence[str],
            ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Class indices into the sorted observed labels."""
    if len(y_true) == 0:
        raise ValueError("no predictions to score")
    order = tuple(sorted(set(y_true) | set(y_pred)))
    index = {lab: i for i, lab in enumerate(order)}
    return (np.array([index[v] for v in y_true]),
            np.array([index[v] for v in y_pred]), order)


def _recall(correct: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Recall from hit and instance counts, elementwise; NaN where a class
    has no instances."""
    totals = totals.astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, correct.astype(float) / totals, np.nan)


def _recalls(y_true: np.ndarray, y_pred: np.ndarray, k: int) -> np.ndarray:
    """Per-class recall; NaN for classes with no instances."""
    return _recall(np.bincount(y_true[y_true == y_pred], minlength=k),
                   np.bincount(y_true, minlength=k))


def uar_from_labels(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    """Mean recall over the classes present in the true labels."""
    t, p, order = _encode(y_true, y_pred)
    return float(np.nanmean(_recalls(t, p, len(order))))


def bootstrap_ci(preds: PredictionSet, seed: int) -> tuple[float, float]:
    """Percentile bootstrap 95% CI of the UAR over BOOTSTRAP_REPLICATES
    replicates.

    Each replicate resamples len(preds) predictions with replacement and
    averages recall over the classes present in that replicate; the CI is
    the 2.5th/97.5th percentile (linear interpolation).  Replicate streams
    derive from (seed, replicate index), so the result is reproducible and
    replicates could be evaluated concurrently.
    """
    y_true, y_pred, order = _encode(preds.true_labels, preds.predicted_labels)
    n, k = len(y_true), len(order)
    # Each prediction's code is its class, plus k when it is a hit, so one
    # bincount over a stack of replicates, each offset by 2k, gives every
    # replicate's misses and hits per class.
    code = y_true + k * (y_true == y_pred)
    stack = max(1, _BOOTSTRAP_STACK_ITEMS // n)
    stats = np.empty(BOOTSTRAP_REPLICATES)
    for first in range(0, BOOTSTRAP_REPLICATES, stack):
        rows = min(stack, BOOTSTRAP_REPLICATES - first)
        idx = np.empty((rows, n), dtype=np.int64)
        for i in range(rows):
            idx[i] = rng_for(seed, first + i).integers(0, n, size=n)
        codes = code[idx]
        codes += np.arange(0, rows * 2 * k, 2 * k)[:, None]
        counts = np.bincount(codes.ravel(), minlength=rows * 2 * k).reshape(rows, 2, k)
        stats[first:first + rows] = np.nanmean(
            _recall(counts[:, 1], counts.sum(axis=1)), axis=1)
    low, high = np.percentile(stats, CI_PERCENTILES)
    return float(low), float(high)


def build_report(preds: PredictionSet, seed: int = 0) -> dict:
    """report.json's record of the pooled predictions, under its keys: n,
    uar, ci_95 (bootstrap_ci under seed), labels, per_class_recall (None for
    a label never true) and confusion_row_normalised, whose row r, column c
    is the fraction of label r predicted as c (zeros if r is never true)."""
    y_true, y_pred, order = _encode(preds.true_labels, preds.predicted_labels)
    k = len(order)
    recalls = _recalls(y_true, y_pred, k)
    counts = np.bincount(y_true * k + y_pred, minlength=k * k).reshape(k, k).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    return {
        "n": len(preds),
        "uar": float(np.nanmean(recalls)),
        "ci_95": list(bootstrap_ci(preds, seed=seed)),
        "labels": list(order),
        "per_class_recall": {lab: (None if np.isnan(rec) else float(rec))
                             for lab, rec in zip(order, recalls)},
        "confusion_row_normalised": matrix.tolist(),
    }


def write_confusion_csv(path: str | Path, report: dict,
                        comment: str | None) -> None:
    labels = report["labels"]
    write_table(path, ("true\\pred", *labels),
                ((lab, *row)
                 for lab, row in zip(labels, report["confusion_row_normalised"])),
                comment)


def write_predictions_csv(path: str | Path, preds: PredictionSet,
                          comment: str | None) -> None:
    write_table(path, tuple(PREDICTIONS_CSV_COLUMNS),
                ((r.utterance_id, r.fold, r.true_label, r.predicted_label)
                 for r in preds.records), comment)


def read_predictions_csv(path: str | Path) -> PredictionSet:
    """Read back a write_predictions_csv file: read_table under
    PREDICTIONS_CSV_COLUMNS, each utterance id once."""
    return PredictionSet([Prediction(uid, true_label, predicted, int(fold))
                          for uid, fold, true_label, predicted
                          in read_table(path, PREDICTIONS_CSV_COLUMNS, unique=True)])
