"""Synthetic utterances with known pitch structure, for oracles and end-to-end runs.

Clips are frequency-modulated sinusoids: a linear trend around a target
mean plus low-pass-filtered Gaussian jitter, so the 100 ms analysis window
sees a locally stable pitch.  Fixtures may use rates far below 250 kHz to
keep runtime small; every downstream parameter derives from the actual rate.

The jitter's single-pole low-pass filter is _low_pass, a numpy block scan
of the recurrence that lfilter([1 - a], [1, -a], x) runs; at any clip
length its output stays within 1e-12 * max|y| of lfilter's (the tests
compare the two), so synth runs on numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json, write_table
from .audio_io import AudioClip, map_ordered, write_wav
from .corpus import CONTEXT_LABELS
from .seeding import rng_for

NOISE_SMOOTHING_S = 0.050  # single-pole low-pass time constant for the jitter
DURATION_RANGE_S = (0.5, 1.0)  # synth_corpus draws clip lengths uniformly from it
SYNTH_SAMPLE_RATE = 50_000  # Hz, the rate of every clip synth_corpus writes
# samples per block of _low_pass's scan: it bounds the a**-j it scales by,
# below 1.6 at 50 kHz and 1.1 at 250 kHz, whatever the clip's length
_SCAN_BLOCK = 1024

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


def _check_spec(spec: SynthSpec, sample_rate: int) -> None:
    """Raise ValueError unless synth_utterance can build the clip."""
    if not 0.0 < spec.amplitude <= 1.0:
        raise ValueError(f"amplitude {spec.amplitude} outside (0, 1]")
    if spec.duration_s <= 0:
        raise ValueError("duration must be positive")
    drift = abs(spec.f0_slope) * spec.duration_s / 2.0
    lo = spec.f0_mean - 3.0 * spec.f0_std - drift
    hi = spec.f0_mean + 3.0 * spec.f0_std + drift
    if lo <= 0.0 or hi >= sample_rate / 2.0:
        raise ValueError(
            f"frequency range [{lo:.1f}, {hi:.1f}] Hz outside (0, {sample_rate / 2})")


def _low_pass(x: np.ndarray, a: float) -> np.ndarray:
    """y[n] = a*y[n-1] + (1-a)*x[n] from y[-1] = 0, for 0 < a < 1.

    x is cut into blocks of L = _SCAN_BLOCK samples, j = 0 .. L-1.  A
    block's response from a zero state is a**j * cumsum((1-a) * a**-j * x).
    A short loop carries the state s from each block's end to the next, and
    a*s added to the block's first term before its cumsum adds the state's
    response a**(j+1) * s.
    """
    n = x.size
    # at rates below about 30 Hz a decays so fast that a**-(_SCAN_BLOCK - 1)
    # would overflow; a shorter block keeps it below e**600
    block = min(_SCAN_BLOCK, max(1, int(600.0 / -np.log(a))))
    rows = -(-n // block)
    y = np.zeros(rows * block)
    y[:n] = x
    y = y.reshape(rows, block)
    up = a ** np.arange(block)
    y *= (1.0 - a) / up
    ends = y.sum(axis=1)
    ends *= up[-1]  # each block's zero-state response at its last sample
    starts = np.empty(rows)
    state, decay = 0.0, a ** block
    for row, end in enumerate(ends.tolist()):
        starts[row] = state
        state = end + decay * state
    y[:, 0] += a * starts
    np.cumsum(y, axis=1, out=y)
    y *= up
    return y.ravel()[:n]


def synth_utterance(spec: SynthSpec, sample_rate: int) -> AudioClip:
    """Phase-continuous FM sinusoid; bit-identical for identical spec and seed.

    Instantaneous frequency: f0_mean + f0_slope*(t - T/2) + jitter, where the
    jitter is smoothed Gaussian noise of std f0_std clipped to +-3 std so the
    frequency never leaves (0, sample_rate/2).  Frequency, phase and samples
    share one buffer; each step rounds as amplitude * sin(2*pi *
    cumsum(f0_mean + f0_slope*(t - T/2) + jitter) / rate) does.
    """
    _check_spec(spec, sample_rate)
    n = int(round(spec.duration_s * sample_rate))
    out = np.arange(n, dtype=np.float64)
    out /= sample_rate
    out -= spec.duration_s / 2.0
    out *= spec.f0_slope
    out += spec.f0_mean
    if spec.f0_std > 0.0:
        a = np.exp(-1.0 / (NOISE_SMOOTHING_S * sample_rate))
        smoothed = _low_pass(rng_for(spec.seed).standard_normal(n), a)
        stationary_std = np.sqrt((1.0 - a) / (1.0 + a))
        out += np.clip(smoothed * (spec.f0_std / stationary_std),
                       -3.0 * spec.f0_std, 3.0 * spec.f0_std)
    np.cumsum(out, out=out)
    out *= 2.0 * np.pi
    out /= sample_rate
    np.sin(out, out=out)
    out *= spec.amplitude
    return AudioClip(samples=out, sample_rate=sample_rate)


def synth_corpus(out_dir: str | Path, n_emitters: int, per_class_count: int,
                 seed: int) -> tuple[Path, Path]:
    """Write a synthetic corpus: WAVs, an annotation table, and its schema.

    The classes are SEPARABLE_CLASS_SPECS, and utterances rotate round-robin
    over the synthetic emitters.  Returns (annotation_path, schema_path);
    audio lands under out_dir/wavs/.  Every clip's spec is drawn and checked
    before the first file is written, so a refused corpus (a ValueError: too
    few emitters or clips, or a frequency range outside (0, rate/2)) leaves
    nothing behind.  Then a thread per CPU writes the clips
    (audio_io.map_ordered), each from its own spec and seed, so the files
    are the same for any thread count.  The first failed clip raises its
    error again, drops the clips not yet started and leaves no annotation
    table.
    """
    if n_emitters < 3:
        raise ValueError("need at least 3 emitters for downstream fold building")
    if per_class_count < 1:
        raise ValueError(f"per-class count must be at least 1, got {per_class_count}")
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    emitters = [f"bat{replicate:02d}" for replicate in range(n_emitters)]

    rng = rng_for(seed)
    drawn = []
    for label, params in sorted(SEPARABLE_CLASS_SPECS.items()):
        for _ in range(per_class_count):
            emitter = emitters[len(drawn) % n_emitters]
            duration = float(rng.uniform(*DURATION_RANGE_S))
            amplitude = float(rng.uniform(0.3, 0.9))
            clip_seed = int(rng.integers(2 ** 62))
            spec = SynthSpec(context=label, f0_mean=params["f0_mean"],
                             f0_std=params.get("f0_std", 0.0),
                             f0_slope=params.get("f0_slope", 0.0),
                             duration_s=duration, amplitude=amplitude,
                             emitter_id=emitter, seed=clip_seed)
            _check_spec(spec, SYNTH_SAMPLE_RATE)
            drawn.append(spec)

    def write(counter: int) -> None:
        write_wav(wav_dir / f"u{counter:06d}.wav",
                  synth_utterance(drawn[counter], SYNTH_SAMPLE_RATE))

    for result in map_ordered(write, range(len(drawn))):
        if isinstance(result, Exception):
            raise result

    annotation_path = out_dir / "annotations.csv"
    write_table(annotation_path, ("utterance_id", "emitter_id", "context_code",
                                  "file"),
                [(f"u{i:06d}", spec.emitter_id, spec.context, f"wavs/u{i:06d}.wav")
                 for i, spec in enumerate(drawn)])

    schema_path = out_dir / "schema.json"
    write_json(schema_path, {
        "delimiter": ",",
        "columns": {"id": "utterance_id", "emitter": "emitter_id",
                    "context": "context_code", "file": "file"},
        "context_map": {label: label for label in sorted(SEPARABLE_CLASS_SPECS)},
        "emitter_placeholders": ["unknown-emitter"],
    })
    return annotation_path, schema_path
