"""Workload inputs, generated from the seed during set-up.

The program under test only ever sees the files written here.  Each
generator returns a WorkloadInputs telling the runner which stages to call
and what the cohort should contain.

Why each workload exists:

- audio-250k: the target sample rate.  Decode, STFT, gate/argmax and tensor
  writing do all the work and the SVM does none.  The annotation table has
  no durations, so filtering reads every WAV header (wav_duration).
- acceptance: the paper's result path on the corpus the acceptance suite
  pins (criterion 8).  Separable classes, so the solver runs many epochs
  with few support vectors, and train-eval is almost the whole pipeline.
- overlap-train: the real corpus's regime (published UAR 0.224):
  imbalanced, heavily overlapping classes with many dual variables at the
  box bound.  Only partition and train-eval run.  Not in BENCHMARK.json:
  its solver work moves by about a fifth between seeds (README.md), so it is
  run by hand, e.g. to confirm a solver change keeps its test UAR.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from usvpipe.audio_io import write_wav
from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.pitch import FeatureRecord, FeatureVector, write_feature_csv
from usvpipe.seeding import rng_for
from usvpipe.synth import (SEPARABLE_CLASS_SPECS, SynthSpec, synth_corpus,
                           synth_utterance)

# The acceptance suite's corpus (criterion 8): 11 classes x 50, 12 emitters.
ACCEPTANCE_EMITTERS = 12
ACCEPTANCE_PER_CLASS = 50

# Real-corpus regime: imbalanced, overlapping classes.  Class sizes fall
# geometrically from 200 to 25 (about 960 utterances over 24 emitters).
OVERLAP_LARGEST, OVERLAP_SMALLEST = 200, 25
OVERLAP_EMITTERS = 24
OVERLAP_CLASS_SPREAD = 0.35    # std of the class means, per feature
OVERLAP_EMITTER_SPREAD = 0.3   # std of the per-emitter offsets, per feature
OVERLAP_FEATURES = 10

# Target sample rate with clips up to the 3 s filter limit.  The clips are
# jitter-free FM sweeps: STFT and gate/argmax cost does not depend on the
# content, and skipping the jitter filter halves set-up time.
AUDIO_RATE = 250_000
AUDIO_EMITTERS = 12
AUDIO_PER_CLASS = 20
AUDIO_DURATION_RANGE = (0.5, 3.0)
AUDIO_MAX_SWEEP_HZ_PER_S = 1000.0


@dataclass(frozen=True)
class WorkloadInputs:
    config: Path                  # run config handed to every stage
    stages: tuple[str, ...]       # CLI subcommands, in order
    cohort_size: int              # utterances the stages must account for
    input_files: tuple[Path, ...]  # what set-up made, for the repeat check
    features_csv: Path | None = None  # copied into the output dir first
    acceptance_check: bool = False    # criterion 8 and a full Table 1


def _write_config(root: Path, seed: int, **paths: Path) -> Path:
    config = {key: str(value) for key, value in paths.items()}
    config["seed"] = seed
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def _corpus_files(root: Path) -> tuple[Path, ...]:
    return tuple(sorted(p for p in root.rglob("*") if p.is_file()))


def acceptance(root: Path, seed: int) -> WorkloadInputs:
    annotations, schema = synth_corpus(
        root, n_emitters=ACCEPTANCE_EMITTERS,
        per_class_count=ACCEPTANCE_PER_CLASS, seed=seed)
    files = _corpus_files(root)
    config = _write_config(root, seed, annotation_file=annotations,
                           schema_file=schema, audio_dir=root)
    return WorkloadInputs(config, ("extract", "partition", "train-eval", "table1"),
                          ACCEPTANCE_PER_CLASS * len(CONTEXT_LABELS), files,
                          acceptance_check=True)


def _overlap_class_sizes() -> list[int]:
    k = len(CONTEXT_LABELS)
    ratio = (OVERLAP_SMALLEST / OVERLAP_LARGEST) ** (1.0 / (k - 1))
    return [int(round(OVERLAP_LARGEST * ratio ** i)) for i in range(k)]


def overlap_train(root: Path, seed: int) -> WorkloadInputs:
    root.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed)
    class_means = rng.normal(
        0.0, OVERLAP_CLASS_SPREAD, (len(CONTEXT_LABELS), OVERLAP_FEATURES))
    emitter_offsets = rng.normal(
        0.0, OVERLAP_EMITTER_SPREAD, (OVERLAP_EMITTERS, OVERLAP_FEATURES))
    records = []
    counter = 0
    for label, mean, size in zip(CONTEXT_LABELS, class_means, _overlap_class_sizes()):
        for _ in range(size):
            emitter = counter % OVERLAP_EMITTERS
            z = mean + emitter_offsets[emitter] + rng.standard_normal(OVERLAP_FEATURES)
            records.append(FeatureRecord(
                utterance_id=f"u{counter:06d}", emitter_id=f"bat{emitter:02d}",
                context=label, duration_s=float(rng.uniform(0.5, 1.0)),
                features=FeatureVector(*(float(v) for v in z))))
            counter += 1
    features = root / "features.csv"
    write_feature_csv(features, records)
    return WorkloadInputs(_write_config(root, seed), ("partition", "train-eval"),
                          len(records), (features,), features_csv=features)


def audio_250k(root: Path, seed: int) -> WorkloadInputs:
    """FM sweeps at 250 kHz around the class means; no durations annotated.

    Durations are stratified over AUDIO_DURATION_RANGE (one clip per equal
    slice, order shuffled) so that the total audio, and with it the decode
    and STFT work, hardly moves between seeds.
    """
    wav_dir = root / "wavs"
    wav_dir.mkdir(parents=True)
    rng = rng_for(seed)
    n = AUDIO_PER_CLASS * len(CONTEXT_LABELS)
    lo, hi = AUDIO_DURATION_RANGE
    durations = rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)
    rows = [("utterance_id", "emitter_id", "context_code", "file", "duration_s")]
    for i, duration in enumerate(durations):
        label = CONTEXT_LABELS[i % len(CONTEXT_LABELS)]
        uid, emitter = f"u{i:06d}", f"bat{i % AUDIO_EMITTERS:02d}"
        sweep = AUDIO_MAX_SWEEP_HZ_PER_S * float(rng.uniform(-1.0, 1.0))
        spec = SynthSpec(context=label,
                         f0_mean=SEPARABLE_CLASS_SPECS[label]["f0_mean"],
                         f0_std=0.0, f0_slope=sweep, duration_s=float(duration),
                         amplitude=float(rng.uniform(0.3, 0.9)),
                         emitter_id=emitter, seed=int(rng.integers(2 ** 62)))
        write_wav(wav_dir / f"{uid}.wav", synth_utterance(spec, AUDIO_RATE))
        # duration_s left blank: filter_cohort falls back to wav_duration
        rows.append((uid, emitter, label, f"wavs/{uid}.wav", ""))
    annotations = root / "annotations.csv"
    with open(annotations, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    schema = root / "schema.json"
    schema.write_text(json.dumps({
        "delimiter": ",",
        "columns": {"id": "utterance_id", "emitter": "emitter_id",
                    "context": "context_code", "file": "file",
                    "duration": "duration_s"},
        "context_map": {label: label for label in CONTEXT_LABELS},
        "emitter_placeholders": [],
    }, indent=2, sort_keys=True) + "\n")
    files = _corpus_files(root)
    return WorkloadInputs(_write_config(root, seed, annotation_file=annotations,
                                        schema_file=schema, audio_dir=root),
                          ("extract", "export-spectrograms"), n, files)


# BENCHMARK.json lists the first two; --all runs every one.
WORKLOADS = {
    "audio-250k": audio_250k,
    "acceptance": acceptance,
    "overlap-train": overlap_train,
}
