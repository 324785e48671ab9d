"""Synthetic utterances with known pitch structure, for oracles and end-to-end runs.

Clips are frequency-modulated sinusoids: a linear trend around a target
mean plus low-pass-filtered Gaussian jitter, so the 100 ms analysis window
sees a locally stable pitch.  Fixtures may use rates far below 250 kHz to
keep runtime small; every downstream parameter derives from the actual rate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .artifacts import write_table
from .audio_io import AudioClip, write_wav
from .corpus import CONTEXT_LABELS
from .exceptions import SpecOutOfRangeError
from .seeding import rng_for

NOISE_SMOOTHING_S = 0.050  # single-pole low-pass time constant for the jitter

# 11 well-separated classes: means 500 Hz apart, modest jitter, no trend.
SEPARABLE_CLASS_SPECS = {
    label: {"f0_mean": 8000.0 + 500.0 * i, "f0_std": 100.0, "f0_slope": 0.0}
    for i, label in enumerate(CONTEXT_LABELS)
}


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for one utterance."""

    context: str
    f0_mean: float
    f0_std: float
    f0_slope: float
    duration_s: float
    amplitude: float
    emitter_id: str
    seed: int


def synth_utterance(spec: SynthSpec, sample_rate: int) -> AudioClip:
    """Phase-continuous FM sinusoid; bit-identical for identical spec and seed.

    Instantaneous frequency: f0_mean + f0_slope*(t - T/2) + jitter, where the
    jitter is smoothed Gaussian noise of std f0_std clipped to +-3 std so the
    frequency never leaves (0, sample_rate/2).
    """
    if not 0.0 < spec.amplitude <= 1.0:
        raise SpecOutOfRangeError(f"amplitude {spec.amplitude} outside (0, 1]")
    if spec.duration_s <= 0:
        raise SpecOutOfRangeError("duration must be positive")
    drift = abs(spec.f0_slope) * spec.duration_s / 2.0
    lo = spec.f0_mean - 3.0 * spec.f0_std - drift
    hi = spec.f0_mean + 3.0 * spec.f0_std + drift
    if lo <= 0.0 or hi >= sample_rate / 2.0:
        raise SpecOutOfRangeError(
            f"frequency range [{lo:.1f}, {hi:.1f}] Hz outside (0, {sample_rate / 2})")

    n = int(round(spec.duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    freq = spec.f0_mean + spec.f0_slope * (t - spec.duration_s / 2.0)
    if spec.f0_std > 0.0:
        rng = rng_for(spec.seed)
        a = np.exp(-1.0 / (NOISE_SMOOTHING_S * sample_rate))
        smoothed = lfilter([1.0 - a], [1.0, -a], rng.standard_normal(n))
        stationary_std = np.sqrt((1.0 - a) / (1.0 + a))
        jitter = np.clip(smoothed * (spec.f0_std / stationary_std),
                         -3.0 * spec.f0_std, 3.0 * spec.f0_std)
        freq = freq + jitter
    phase = 2.0 * np.pi * np.cumsum(freq) / sample_rate
    samples = spec.amplitude * np.sin(phase)
    return AudioClip(samples=samples, sample_rate=sample_rate,
                     source_id=f"synth-{spec.context}-{spec.seed}")


def synth_corpus(out_dir: str | Path, n_emitters: int, per_class_count: int,
                 class_specs: dict[str, dict] | None = None, seed: int = 0,
                 sample_rate: int = 50_000,
                 duration_range: tuple[float, float] = (0.5, 1.0),
                 ) -> tuple[Path, Path]:
    """Write a synthetic corpus: WAVs, an annotation table, and its schema.

    Utterances rotate round-robin over the synthetic emitters.  Returns
    (annotation_path, schema_path); audio lands under out_dir/wavs/.
    """
    if n_emitters < 3:
        raise ValueError("need at least 3 emitters for downstream fold building")
    specs = class_specs if class_specs is not None else SEPARABLE_CLASS_SPECS
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    emitters = [f"bat{replicate:02d}" for replicate in range(n_emitters)]

    rng = rng_for(seed)
    rows = []
    counter = 0
    for label in sorted(specs):
        params = specs[label]
        for _ in range(per_class_count):
            uid = f"u{counter:06d}"
            emitter = emitters[counter % n_emitters]
            duration = float(rng.uniform(*duration_range))
            amplitude = float(rng.uniform(0.3, 0.9))
            clip_seed = int(rng.integers(2 ** 62))
            spec = SynthSpec(context=label, f0_mean=params["f0_mean"],
                             f0_std=params.get("f0_std", 0.0),
                             f0_slope=params.get("f0_slope", 0.0),
                             duration_s=duration, amplitude=amplitude,
                             emitter_id=emitter, seed=clip_seed)
            clip = synth_utterance(spec, sample_rate)
            write_wav(wav_dir / f"{uid}.wav", clip)
            rows.append((uid, emitter, label, f"wavs/{uid}.wav",
                         format(clip.duration_s, ".6f")))
            counter += 1

    annotation_path = out_dir / "annotations.csv"
    write_table(annotation_path, ("utterance_id", "emitter_id", "context_code",
                                  "file", "duration_s"), rows)

    schema_path = out_dir / "schema.json"
    schema = {
        "delimiter": ",",
        "columns": {"id": "utterance_id", "emitter": "emitter_id",
                    "context": "context_code", "file": "file",
                    "duration": "duration_s"},
        "context_map": {label: label for label in sorted(specs)},
        "emitter_placeholders": ["unknown-emitter"],
    }
    schema_path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
    return annotation_path, schema_path
