"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-9 are self-contained and run in CI.  Criterion 10 needs the
public corpus on disk and is skipped unless the USV_CORPUS_* environment
variables point at it (see README).  One more test reads the end-to-end
run's solver certificate from report.json.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from usvpipe.audio_io import AudioClip
from usvpipe.cli import main
from usvpipe.evaluation import (Prediction, PredictionSet, bootstrap_ci,
                                uar_from_labels)
from usvpipe.partition import read_fold_plan
from usvpipe.pitch import contour_stats, extract_f0, read_feature_csv
from usvpipe.spectral import export_spectrogram, read_tensor, write_tensor
from usvpipe.svm import SOLVER_GAP, train_binary
from usvpipe.synth import SynthSpec, synth_corpus, synth_utterance

from conftest import (brute_force_dft_magnitudes, refine_grid_minimum, train_weighted,
                      weighted_primal)

RATE = 50_000          # fixture rate; bin width matches the corpus rate (10 Hz)
BIN_HZ = 10.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num:02d} "
          f"{'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def tone_spec(f0, seed, **overrides):
    base = dict(context="general", f0_mean=f0, f0_std=0.0, f0_slope=0.0,
                duration_s=0.5, amplitude=0.5, emitter_id="bat00", seed=seed)
    base.update(overrides)
    return SynthSpec(**base)


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """The 11-class, 12-emitter, 50-per-class corpus pushed through the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    synth_corpus(root, n_emitters=12, per_class_count=50, seed=7)
    synth_s = time.perf_counter() - t0
    args = ["--annotations", str(root / "annotations.csv"),
            "--schema", str(root / "schema.json"),
            "--audio-dir", str(root), "--out", str(root / "results"),
            "--seed", "7"]
    t0 = time.perf_counter()
    assert main(["extract"] + args) == 0
    assert main(["partition"] + args) == 0
    assert main(["train-eval"] + args) == 0
    pipeline_s = time.perf_counter() - t0
    return {"root": root, "results": root / "results",
            "synth_s": synth_s, "pipeline_s": pipeline_s}


def test_criterion_1_pitch_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    bins = rng.integers(600, 1701, size=100)  # bin-centre f0 in [6 kHz, 17 kHz]
    worst = 0.0
    exact_std = True
    for i, k in enumerate(bins):
        f0 = float(k) * BIN_HZ
        clip = synth_utterance(tone_spec(f0, seed=1000 + i), RATE)
        fv = contour_stats(extract_f0(clip))
        worst = max(worst, abs(fv.f0_mean_voiced - f0))
        exact_std = exact_std and fv.f0_std_voiced == 0.0
    # independent oracle: naive DFT argmax on windowed frames of sampled tones
    win = int(0.100 * RATE)
    hop = int(0.016 * RATE)
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    for i in (0, 57, 99):
        f0 = float(bins[i]) * BIN_HZ
        clip = synth_utterance(tone_spec(f0, seed=1000 + i), RATE)
        for frame_index in (0, 3):
            frame = clip.samples[frame_index * hop:frame_index * hop + win] * hann
            assert int(np.argmax(brute_force_dft_magnitudes(frame))) == bins[i]
    elapsed = time.perf_counter() - t0
    ok = worst <= BIN_HZ and exact_std and elapsed < 30.0
    report(1, ok, f"100 tones, worst |mean_voiced - f0| = {worst:.3f} Hz "
                  f"(<= {BIN_HZ}), std_voiced exact zero = {exact_std}, "
                  f"runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_2_slope_oracle():
    t0 = time.perf_counter()
    errors = []
    for slope in (4000.0, -4000.0):
        clip = synth_utterance(tone_spec(11_000.0, seed=55, f0_slope=slope,
                                         duration_s=1.0), RATE)
        fv = contour_stats(extract_f0(clip))
        errors.append(abs(fv.f0_slope_voiced - slope) / abs(slope))
    elapsed = time.perf_counter() - t0
    ok = max(errors) <= 0.05
    report(2, ok, f"chirp slopes +-4000 Hz/s recovered, worst relative error "
                  f"{max(errors):.4f} (<= 0.05), runtime {elapsed:.1f} s")


def test_criterion_3_gate_property():
    rng = np.random.default_rng(303)
    interferer_ok = True
    scale_ok = True
    for trial in range(50):
        k = int(rng.integers(700, 1600))
        f0 = k * BIN_HZ
        noisy = trial % 2 == 1  # alternate pure and jittered specs
        spec = tone_spec(f0, seed=3000 + trial,
                         duration_s=float(rng.uniform(0.3, 0.7)),
                         amplitude=float(rng.uniform(0.2, 0.9)),
                         f0_std=60.0 if noisy else 0.0,
                         f0_slope=float(rng.uniform(-800, 800)))
        clip = synth_utterance(spec, RATE)
        base = extract_f0(clip)

        # -30 dB relative interferer at a bin centre >= 1 kHz away
        offset = float(rng.choice([-1, 1])) * float(rng.integers(100, 400)) * BIN_HZ
        t = np.arange(clip.samples.size) / RATE
        weak = spec.amplitude * 10 ** (-30 / 20) * np.sin(2 * np.pi * (f0 + offset) * t)
        with_interferer = extract_f0(AudioClip(samples=clip.samples + weak,
                                               sample_rate=RATE))
        voiced = base.f0_hz > 0
        if not np.array_equal(base.f0_hz[voiced], with_interferer.f0_hz[voiced]):
            interferer_ok = False

        for scale in (0.1, 10.0):
            scaled = extract_f0(AudioClip(samples=scale * clip.samples,
                                          sample_rate=RATE))
            if not (np.array_equal(scaled.f0_hz > 0, base.f0_hz > 0)
                    and np.array_equal(scaled.f0_hz, base.f0_hz)):
                scale_ok = False
    ok = interferer_ok and scale_ok
    report(3, ok, f"50 random specs: interferer leaves voiced f0 unchanged = "
                  f"{interferer_ok}, x0.1/x10 leaves contours unchanged = {scale_ok}")


def test_criterion_4_uar_unit_suite():
    case1 = uar_from_labels(list("ABCABCA"), list("ABCABCA")) == 1.0
    case2 = uar_from_labels(["A", "A", "B", "B"], ["A", "B", "B", "B"]) == 0.75
    labels = [f"c{i:02d}" for i in range(11)]
    truth = [lab for lab in labels for _ in range(4)]
    case3 = abs(uar_from_labels(truth, [labels[0]] * len(truth)) - 1.0 / 11.0) < 1e-15

    ok = case1 and case2 and case3
    report(4, ok, f"all-correct = 1.0: {case1}; recalls (0.5, 1.0) -> 0.75: "
                  f"{case2}; 11-class constant predictor = 1/11: {case3}")


def test_criterion_5_bootstrap_determinism():
    perfect = PredictionSet([Prediction(f"u{i}", lab, lab, 0)
                             for i, lab in enumerate("AABBB")])
    degenerate = bootstrap_ci(perfect, seed=1) == (1.0, 1.0)

    single = PredictionSet([Prediction("u0", "A", "A", 0)])
    single_case = bootstrap_ci(single, seed=2) == (1.0, 1.0)

    mixed = PredictionSet([Prediction(f"u{i}", t, p, 0) for i, (t, p) in
                           enumerate(zip("AABB", "ABBB"))])
    reproduced = bootstrap_ci(mixed, seed=42) == bootstrap_ci(mixed, seed=42) \
        == (0.5, 1.0)  # pinned from a seeded run
    ok = degenerate and single_case and reproduced
    report(5, ok, f"all-correct CI [1,1]: {degenerate}; single prediction CI "
                  f"[1,1]: {single_case}; seed 42 reproduces pinned bytes: "
                  f"{reproduced}")


def test_criterion_6_partition_invariants(e2e_run):
    plan = read_fold_plan(e2e_run["results"] / "folds.csv")
    records = {r.utterance_id: r
               for r in read_feature_csv(e2e_run["results"] / "features.csv")}
    n = len(records)
    from collections import Counter
    global_counts = Counter(r.context for r in records.values())

    tested = Counter()
    for fold in range(3):
        tested.update(uid for uid, roles in plan.items() if roles[fold] == "test")
    coverage = len(tested) == n and set(tested.values()) == {1}

    disjoint = True
    l1_ok = True
    strat_ok = True
    for fold in range(3):
        train, val, test = ([uid for uid in sorted(plan) if plan[uid][fold] == role]
                            for role in ("train", "val", "test"))
        dev_emitters = {records[u].emitter_id for u in train + val}
        test_emitters = {records[u].emitter_id for u in test}
        disjoint = disjoint and not (dev_emitters & test_emitters)
        test_counts = Counter(records[u].context for u in test)
        l1 = sum(abs(test_counts[lab] / len(test) - global_counts[lab] / n)
                 for lab in global_counts)
        l1_ok = l1_ok and l1 < 0.05
        for lab in global_counts:
            dev_n = sum(1 for u in train + val if records[u].context == lab)
            val_n = sum(1 for u in val if records[u].context == lab)
            if abs(val_n - 0.3 * dev_n) > 1.0:
                strat_ok = False
    ok = coverage and disjoint and l1_ok and strat_ok
    report(6, ok, f"single-test coverage: {coverage}; emitter disjointness: "
                  f"{disjoint}; per-fold test L1 < 0.05: {l1_ok}; "
                  f"inner split within +-1 of 30%: {strat_ok}")


def test_criterion_7_svm_solver_correctness():
    m = train_binary(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]),
                     cost=1.0)
    two_point = (abs(m.weights[0] - 1.0) < 1e-3 and abs(m.bias) < 1e-3
                 and m.converged is True)

    rng = np.random.default_rng(707)
    worst_gap = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 7))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if len(set(y.tolist())) < 2:
            y[0] = -y[0]
        cost = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
        wp, wn = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        machine = train_weighted(X, y, cost, weight_pos=wp, weight_neg=wn)
        box = cost * np.where(y > 0, wp, wn)
        mine = weighted_primal(machine.weights, machine.bias, X, y, box)
        oracle, _ = refine_grid_minimum(X, y, box)
        worst_gap = max(worst_gap, abs(mine - oracle))
    brute_ok = worst_gap <= 1e-3

    X = np.random.default_rng(708).normal(size=(6, 2))
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    dup_ok = True
    for d in (2, 3):
        mw = train_weighted(X, y, cost=0.5, weight_neg=float(d))
        md = train_binary(np.vstack([X[:4], np.repeat(X[4:], d, axis=0)]),
                          np.concatenate([np.ones(4), -np.ones(2 * d)]), cost=0.5)
        dup_ok = dup_ok and (np.abs(mw.weights - md.weights).max() < 1e-3
                             and abs(mw.bias - md.bias) < 1e-3)

    ok = two_point and brute_ok and dup_ok
    report(7, ok, f"two-point (w, b) = (1, 0) within 1e-3, converged: {two_point}; "
                  f"20 tiny problems within 1e-3 of fine search (worst gap "
                  f"{worst_gap:.2e}): {brute_ok}; weights 2 and 3 = duplicated rows "
                  f"within 1e-3: {dup_ok}")


def test_criterion_8_end_to_end_uar(e2e_run):
    payload = json.loads((e2e_run["results"] / "report.json").read_text())
    pooled_uar = payload["uar"]
    elapsed = e2e_run["pipeline_s"]
    ok = pooled_uar >= 0.80 and payload["n"] == 550 and elapsed < 300.0
    report(8, ok, f"pooled UAR {pooled_uar:.4f} (>= 0.80) over {payload['n']} "
                  f"predictions; extract+partition+train-eval took "
                  f"{elapsed:.0f} s (< 300 s)")


def test_every_fold_certified_without_capped_machines(e2e_run):
    """The separable pairs of this corpus meet the duality gap before the
    epoch cap, validation and refit machines alike, in about as many
    interior-point iterations as the solver took when this test was written:
    9 921 over the three folds (3 307, 3 312 and 3 302).  A change that
    slows or speeds the convergence leaves the band."""
    provenance = json.loads(
        (e2e_run["results"] / "report.json").read_text())["provenance"]
    folds = set(provenance["chosen_costs"])
    assert set(provenance["capped_machines"]) == folds
    assert all(count == 0 for count in provenance["capped_machines"].values())
    assert set(provenance["max_relative_gap"]) == folds
    assert all(gap <= SOLVER_GAP for gap in provenance["max_relative_gap"].values())
    assert 9_400 <= sum(provenance["solver_epochs"].values()) <= 10_400


def test_criterion_9_spectrogram_export(tmp_path):
    shapes_ok = True
    size_ok = True
    roundtrip_ok = True
    for i, duration in enumerate((0.12, 1.0, 3.0)):
        n = int(round(duration * 250_000))
        t = np.arange(n) / 250_000
        clip = AudioClip(samples=0.4 * np.sin(2 * np.pi * 30_000 * t),
                         sample_rate=250_000)
        spec = export_spectrogram(clip)
        shapes_ok = shapes_ok and spec.magnitudes.shape == (299, 2049)
        path = tmp_path / f"t{i}.usvt"
        write_tensor(spec, path)
        size_ok = size_ok and path.stat().st_size == 24 + 299 * 2049 * 4
        back = read_tensor(path)
        roundtrip_ok = roundtrip_ok and np.array_equal(
            back, spec.magnitudes.astype(np.float32))
    ok = shapes_ok and size_ok and roundtrip_ok
    report(9, ok, f"shapes 299 x 2049: {shapes_ok}; file size 2450628 B: "
                  f"{size_ok}; bit-exact round-trip: {roundtrip_ok}")


REFERENCE_MEAN_F0_HZ = {
    "biting": 11_238, "feeding": 10_584, "fighting": 11_680, "general": 11_098,
    "grooming": 11_385, "isolation": 12_640, "kissing": 11_461,
    "protesting": 11_545, "separation": 10_196, "sleeping": 11_500,
    "threatening": 10_838,
}


@pytest.mark.skipif("USV_CORPUS_ANNOTATIONS" not in os.environ,
                    reason="public corpus not available; set USV_CORPUS_* to run")
def test_criterion_10_public_corpus_reproduction(tmp_path):
    """Dataset-dependent reproduction; hours of compute, never part of CI."""
    annotations = Path(os.environ["USV_CORPUS_ANNOTATIONS"])
    schema = Path(os.environ["USV_CORPUS_SCHEMA"])
    audio_dir = Path(os.environ.get("USV_CORPUS_AUDIO", annotations.parent))
    out = Path(os.environ.get("USV_CORPUS_OUT", tmp_path / "corpus_results"))
    args = ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(audio_dir), "--out", str(out), "--seed", "1"]

    assert main(["extract"] + args) == 0
    filter_report = (out / "filter_report.csv").read_text()
    retained = int([l for l in filter_report.splitlines()
                    if l.startswith("retained")][0].split(",")[1])
    cohort_ok = retained == 35_074

    assert main(["partition"] + args) == 0
    assert main(["train-eval"] + args) == 0
    payload = json.loads((out / "report.json").read_text())
    uar_ok = 0.19 <= payload["uar"] <= 0.26

    assert main(["table1"] + args) == 0
    mean_ok = True
    for line in (out / "context_f0_stats.csv").read_text().splitlines()[2:]:
        context, _, mean_hz = line.split(",")[:3]
        reference = REFERENCE_MEAN_F0_HZ[context]
        if abs(float(mean_hz) - reference) > 0.15 * reference:
            mean_ok = False
    ok = cohort_ok and uar_ok and mean_ok
    report(10, ok, f"cohort size 35074: {cohort_ok}; UAR in [0.19, 0.26] "
                   f"(got {payload['uar']:.3f}): {uar_ok}; per-context mean F0 "
                   f"within 15% of reference: {mean_ok}")
