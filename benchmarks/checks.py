"""Output checks run on the artifacts of every benchmark pipeline.

Each check returns a list of problems; an empty list is a pass.  They read
only what the stages wrote to disk, so they hold the program to the
invariants the paper depends on rather than to its own bookkeeping.
"""
from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from pathlib import Path

from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.spectral import read_tensor

# 3 s padded at any rate with a 10 ms hop and a 4096-sample window
EXPORT_SHAPE = (299, 2049)
TENSOR_BYTES = 24 + 4 * EXPORT_SHAPE[0] * EXPORT_SHAPE[1]
ACCEPTANCE_MIN_UAR = 0.80
PROVENANCE_PREFIX = "# usvpipe "


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a provenance-stamped CSV, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[1:]


def feature_emitters(out: Path) -> dict[str, str]:
    """utterance_id -> emitter_id from features.csv."""
    return {row[0]: row[1] for row in _rows(out / "features.csv")}


def check_cohort_accounted(out: Path, cohort_size: int) -> list[str]:
    """Feature rows plus skip rows make up the cohort, with no id twice."""
    ids = list(feature_emitters(out))
    skip_path = out / "skip_report.csv"
    if skip_path.exists():
        ids += [row[0] for row in _rows(skip_path)]
    problems = []
    if len(ids) != cohort_size:
        problems.append(f"{len(ids)} feature and skip rows for a cohort of {cohort_size}")
    if len(set(ids)) != len(ids):
        problems.append("an utterance is both featured and skipped, or listed twice")
    return problems


def extract_errors(out: Path) -> int:
    """Rows of skip_report.csv that record a per-file error."""
    skip_path = out / "skip_report.csv"
    if not skip_path.exists():
        return 0
    return sum(row[1].startswith("error:") for row in _rows(skip_path))


def check_folds(out: Path) -> list[str]:
    """Emitter-disjoint folds; every featured utterance tested exactly once."""
    emitters = feature_emitters(out)
    tested = defaultdict(int)
    test_emitters: dict[int, set[str]] = defaultdict(set)
    dev_emitters: dict[int, set[str]] = defaultdict(set)
    problems = []
    for uid, fold, role in _rows(out / "folds.csv"):
        if uid not in emitters:
            problems.append(f"folds.csv names {uid}, which has no feature row")
            continue
        side = test_emitters if role == "test" else dev_emitters
        side[int(fold)].add(emitters[uid])
        tested[uid] += role == "test"
    for fold in sorted(test_emitters.keys() | dev_emitters.keys()):
        shared = test_emitters[fold] & dev_emitters[fold]
        if shared:
            problems.append(f"fold {fold}: emitters on both sides: {sorted(shared)}")
    wrong = [uid for uid in emitters if tested[uid] != 1]
    if wrong:
        problems.append(f"{len(wrong)} utterances not tested exactly once, "
                        f"e.g. {wrong[0]}")
    return problems


def check_predictions(out: Path) -> list[str]:
    """One prediction per feature row."""
    predicted = [row[0] for row in _rows(out / "predictions.csv")]
    if sorted(predicted) != sorted(feature_emitters(out)):
        return [f"{len(predicted)} predictions do not match the feature rows"]
    return []


def read_uar(out: Path) -> tuple[float, int]:
    report = json.loads((out / "report.json").read_text())
    return float(report["uar"]), int(report["n"])


def check_acceptance(out: Path, cohort_size: int) -> list[str]:
    """Criterion 8 of the acceptance suite, plus a complete Table 1."""
    problems = []
    uar, n = read_uar(out)
    if n != cohort_size or uar < ACCEPTANCE_MIN_UAR:
        problems.append(f"UAR {uar:.4f} over n={n}; need >= {ACCEPTANCE_MIN_UAR} "
                        f"over n={cohort_size}")
    listed = len(_rows(out / "context_f0_stats.csv"))
    if listed != len(CONTEXT_LABELS):
        problems.append(f"table1 lists {listed} contexts, "
                        f"expected {len(CONTEXT_LABELS)}")
    return problems


def check_tensors(out: Path, cohort_size: int) -> tuple[list[str], int]:
    """Every manifest tensor has the export size and reads back.

    Returns the problems and the number of tensors that passed.
    """
    problems = []
    good = 0
    rows = _rows(out / "spectrogram_manifest.csv")
    if len(rows) != cohort_size:
        problems.append(f"{len(rows)} manifest rows for a cohort of {cohort_size}")
    for uid, rel, _frames, _bins in rows:
        path = out / rel
        try:
            size = path.stat().st_size
            if size != TENSOR_BYTES:
                raise ValueError(f"{size} bytes, expected {TENSOR_BYTES}")
            if read_tensor(path).shape != EXPORT_SHAPE:
                raise ValueError("unexpected shape")
        except (OSError, ValueError) as exc:
            problems.append(f"tensor {uid}: {exc}")
        else:
            good += 1
    return problems, good


def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact under out, provenance stamps left out.

    The stamp carries RunConfig.config_hash, which hashes file paths, so it
    is dropped from text artifacts and from report.json's provenance.
    """
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(PROVENANCE_PREFIX.encode()))
        elif path.name == "report.json":
            report = json.loads(data)
            report.get("provenance", {}).pop("config", None)
            data = json.dumps(report, sort_keys=True).encode()
        digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


def input_digest(root: Path, files) -> str:
    """One digest over a workload's generated input files, named relative to root."""
    h = hashlib.sha256()
    for path in files:
        h.update(Path(path).relative_to(root).as_posix().encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()
