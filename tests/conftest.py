"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import shutil
import struct
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from usvpipe import svm
from usvpipe.audio_io import AudioClip
from usvpipe.cli import main
from usvpipe.pitch import FeatureRecord, FeatureVector

STAGES = ("extract", "partition", "train-eval", "table1", "export-spectrograms")


def run_stages(config, out, stages=STAGES, flags=()) -> None:
    for stage in stages:
        assert main([stage, "--config", str(config), "--out", str(out), *flags]) == 0


class QuickStart(NamedTuple):
    root: Path          # a directory for the tests' own copies and outputs
    corpus: Path        # the synthesised corpus, with config.json
    results: Path       # what the five stages wrote; tests only read it
    pipeline_s: float   # extract + partition + train-eval, for criterion 8


@pytest.fixture(scope="session")
def quick_start(tmp_path_factory):
    """The README quick start, built and run once per session: synth --seed 7
    --emitters 12 --per-class 50, then the five stages, before any test's
    monkeypatch.  results/ is removed at the end: its tensors fill 1.3 GB."""
    root = tmp_path_factory.mktemp("quick_start")
    corpus = root / "demo"
    assert main(["synth", "--out", str(corpus), "--seed", "7", "--emitters", "12",
                 "--per-class", "50"]) == 0
    t0 = time.perf_counter()
    run_stages(corpus / "config.json", corpus / "results", STAGES[:3])
    pipeline_s = time.perf_counter() - t0
    run_stages(corpus / "config.json", corpus / "results", STAGES[3:])
    yield QuickStart(root, corpus, corpus / "results", pipeline_s)
    shutil.rmtree(corpus / "results")


def brute_force_dft_magnitudes(frame: np.ndarray, block: int = 256) -> np.ndarray:
    """Half-spectrum DFT magnitudes straight from the definition.

    O(n^2) sum over exp(-2*pi*i*k*t/n), evaluated in small bin blocks to
    bound memory.  Independent of the FFT used by the code under test.
    """
    n = len(frame)
    t = np.arange(n)
    out = np.empty(n // 2 + 1)
    for start in range(0, n // 2 + 1, block):
        k = np.arange(start, min(start + block, n // 2 + 1))
        basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
        out[start:start + len(k)] = np.abs(basis @ frame)
    return out


def one_shot_stft(samples, window, hop):
    """Every frame's Hann-windowed rfft magnitude in one call, independent of
    the block-wise kernel under test."""
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    frames = np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]
    return np.abs(np.fft.rfft(frames * hann, axis=1))


def sine_clip(freq_hz: float, duration_s: float = 1.0, sample_rate: int = 50_000,
              amplitude: float = 0.5, phase: float = 0.0) -> AudioClip:
    """Pure sinusoid test clip."""
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return AudioClip(samples=amplitude * np.sin(2 * np.pi * freq_hz * t + phase),
                     sample_rate=sample_rate)


def weighted_primal(w, b, X, y, box) -> float:
    """The binary SVM objective with the bias regularised (augmented feature)."""
    margins = y * (X @ w + b)
    return 0.5 * (np.dot(w, w) + b * b) + float(box @ np.clip(1 - margins, 0, None))


def train_weighted(X, y, cost, weight_pos=1.0, weight_neg=1.0, pair=("+1", "-1")):
    """One class-weighted machine on +/-1 labels, trained as nested_select
    trains each class pair: its _pair_problem through _train_pairs."""
    return svm._train_pairs([svm._pair_problem(X, y, weight_pos, weight_neg)],
                            [pair], cost)[0]


def refine_grid_minimum(X, y, box, half_range=4.0, points=13, rounds=9):
    """Iterated grid refinement over (w1..wd, b): a deterministic fine search
    for the SVM objective, independent of the solver under test."""
    d = X.shape[1] + 1
    centre = np.zeros(d)
    for _ in range(rounds):
        axes = [np.linspace(c - half_range, c + half_range, points) for c in centre]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        margins = y * (mesh[:, :-1] @ X.T + mesh[:, -1:])
        vals = 0.5 * np.square(mesh).sum(axis=1) + np.clip(1 - margins, 0, None) @ box
        centre = mesh[int(np.argmin(vals))]
        step = 2 * half_range / (points - 1)
        half_range = 1.5 * step
    return float(weighted_primal(centre[:-1], centre[-1], X, y, box)), centre


def write_raw_wav(path, *, channels=1, sample_rate=50_000, bits=16, fmt_tag=1,
                  payload=b"\x00\x00" * 100, block_align=None) -> None:
    """Hand-assembled WAV bytes so malformed/unsupported cases are explicit."""
    if block_align is None:
        block_align = channels * (bits // 8)
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


@pytest.fixture
def tmp_wav_factory(tmp_path):
    counter = {"n": 0}

    def make(**kwargs):
        counter["n"] += 1
        path = tmp_path / f"raw{counter['n']:02d}.wav"
        write_raw_wav(path, **kwargs)
        return path

    return make


def record(uid, emitter, context):
    """A feature-table record; the plan never reads the features."""
    return FeatureRecord(utterance_id=uid, emitter_id=emitter, context=context,
                         duration_s=0.5, features=FeatureVector(*[0.0] * 10))


# Twelve utterances: bat0, bat1 and bat2 each bite twice (u00-u02, u06-u08)
# and feed twice (u03-u05, u09-u11), and each emitter is tested in its own
# fold.  Development rows u00-u05 train and u06-u11 are val, so every fold
# trains and validates on both contexts and fold_sides accepts the plan.
SIDE_RECORDS = [record(f"u{i:02d}", f"bat{i % 3}", ("biting", "feeding")[i // 3 % 2])
                for i in range(12)]
SIDE_PLAN = {f"u{i:02d}": tuple("test" if fold == i % 3 else "val" if i >= 6 else "train"
                                for fold in range(3)) for i in range(12)}


def _each_role(change):
    """An edit giving each utterance the roles change(record, fold, role)."""
    return lambda records, plan: (records, {
        r.utterance_id: tuple(change(r, fold, role)
                              for fold, role in enumerate(plan[r.utterance_id]))
        for r in records})


# case: (edit of the records and the plan, the refusal with {features}
# and {folds} standing for the two tables' paths).  test_partition.py
# checks partition.fold_sides on each row, test_cli.py train-eval.
SIDE_DEFECTS = {
    "featured_utterance_not_in_folds": (
        lambda records, plan: (records, {u: roles for u, roles in plan.items()
                                         if u != "u04"}),
        "{features} and {folds} must list the same utterances once each: "
        "utterance u04 has no row in folds.csv"),
    "fold_row_without_features": (
        lambda records, plan: ([r for r in records if r.utterance_id != "u04"], plan),
        "{features} and {folds} must list the same utterances once each: "
        "utterance u04 has no row in features.csv"),
    "empty_test_fold": (
        _each_role(lambda r, fold, role: ("train", "test", role)[fold]
                   if r.emitter_id == "bat0" else role),  # bat0 tested in fold 1
        "{folds}: no utterance is tested in fold 0; each of the 3 folds must test "
        "one or more"),
    "emitter_on_both_sides": (
        lambda records, plan: (records, {**plan, "u00": ("train", "test", "train")}),
        "{folds}: emitter bat0 is in both the test and the development set of fold 0; "
        "folds must be emitter-disjoint"),
    "one_context": (  # bat0 and bat1 only bite: fold 2 develops on them alone
        lambda records, plan: ([record(r.utterance_id, r.emitter_id,
                                       r.context if r.emitter_id == "bat2" else "biting")
                                for r in records], plan),
        "{folds}: the development set of fold 2 holds only context biting; training "
        "needs two or more"),
    "no_val": (
        _each_role(lambda r, fold, role: "train" if role == "val" else role),
        "{folds}: the development set of fold 0 holds no val utterance; cost "
        "selection needs one or more"),
    "val_context_not_in_train": (
        _each_role(lambda r, fold, role: "val" if (fold, r.context, role) == (
            1, "biting", "train") else role),
        "{folds}: the development set of fold 1 holds context biting in val but not "
        "in train; cost selection needs each val context in train"),
}
