"""Full-corpus-scale probes, run after the traced pipeline.

The workloads stay small enough to repeat, so their binary problems hold
roughly 100-250 samples and never reach the solver's epoch cap.  These
probes time single layer calls at the sizes of the 35 074-utterance corpus:
one overlapping binary solve at n = 4 000 and cost 1, one bootstrap report
over 35 074 predictions, and one 3 s clip at 250 kHz through the audio path.
"""
from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from usvpipe.audio_io import load_wav, write_wav
from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.evaluation import Prediction, PredictionSet, build_report
from usvpipe.pitch import contour_stats, extract_f0
from usvpipe.seeding import rng_for
from usvpipe.spectral import export_spectrogram, write_tensor
from usvpipe.svm import train_binary
from usvpipe.synth import SynthSpec, synth_utterance

SVM_ROWS, SVM_FEATURES, SVM_SHIFT = 4000, 10, 0.25  # class means 0.5 std apart
BOOTSTRAP_PREDICTIONS, BOOTSTRAP_HIT_RATE = 35_074, 0.25
CLIP_RATE, CLIP_SECONDS = 250_000, 3.0
REPEATS = 3  # the short probes report the median of this many calls


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def svm_probe(seed: int) -> dict[str, float]:
    rng = rng_for(seed, 1)
    y = np.where(rng.random(SVM_ROWS) < 0.5, 1.0, -1.0)
    X = rng.standard_normal((SVM_ROWS, SVM_FEATURES)) + SVM_SHIFT * y[:, None]
    seconds, machine = _timed(train_binary, X, y, 1.0)
    return {"svm.probe_n4000_c1_s": seconds,
            "svm.probe_n4000_c1_epochs": len(machine.objective_history) - 1}


def bootstrap_probe(seed: int) -> dict[str, float]:
    rng = rng_for(seed, 2)
    k = len(CONTEXT_LABELS)
    weights = 0.75 ** np.arange(k)
    truth = rng.choice(k, size=BOOTSTRAP_PREDICTIONS, p=weights / weights.sum())
    guess = np.where(rng.random(BOOTSTRAP_PREDICTIONS) < BOOTSTRAP_HIT_RATE,
                     truth, rng.integers(0, k, BOOTSTRAP_PREDICTIONS))
    preds = PredictionSet([
        Prediction(f"u{i:06d}", CONTEXT_LABELS[t], CONTEXT_LABELS[g], i % 3)
        for i, (t, g) in enumerate(zip(truth, guess))])
    seconds = [_timed(build_report, preds)[0] for _ in range(REPEATS)]
    return {"evaluation.probe_bootstrap_35k_s": statistics.median(seconds)}


def clip_probe(root: Path, seed: int) -> dict[str, float]:
    root.mkdir(parents=True, exist_ok=True)
    wav, tensor = root / "probe.wav", root / "probe.usvt"
    spec = SynthSpec(context="general", f0_mean=11_000.0, f0_std=100.0,
                     f0_slope=500.0, duration_s=CLIP_SECONDS, amplitude=0.5,
                     emitter_id="probe", seed=seed)
    write_wav(wav, synth_utterance(spec, CLIP_RATE))
    steps = {name: [] for name in ("load_wav", "extract_f0", "contour_stats",
                                   "export_spectrogram", "write_tensor")}
    for _ in range(REPEATS):
        seconds, clip = _timed(load_wav, wav)
        steps["load_wav"].append(seconds)
        seconds, contour = _timed(extract_f0, clip)
        steps["extract_f0"].append(seconds)
        steps["contour_stats"].append(_timed(contour_stats, contour)[0])
        seconds, spectrogram = _timed(export_spectrogram, clip)
        steps["export_spectrogram"].append(seconds)
        steps["write_tensor"].append(_timed(write_tensor, spectrogram, tensor)[0])
    median = {name: statistics.median(values) for name, values in steps.items()}
    return {"audio_io.probe_3s_load_wav_s": median["load_wav"],
            "pitch.probe_3s_extract_f0_s": median["extract_f0"],
            "pitch.probe_3s_contour_stats_s": median["contour_stats"],
            "spectral.probe_3s_export_spectrogram_s": median["export_spectrogram"],
            "spectral.probe_3s_write_tensor_s": median["write_tensor"]}


def run_probes(root: Path, seed: int) -> dict[str, float]:
    return {**svm_probe(seed), **bootstrap_probe(seed), **clip_probe(root, seed)}
