"""Fundamental-frequency contour extraction and contour statistics.

The estimator is deliberately simple: long-window STFT, a relative 20 dB
noise gate, and a per-frame spectral argmax.  The gate reference is the
frequency bin with the maximum time-averaged energy, so the whole contour
is invariant to any positive rescaling of the input.  extract_f0 reduces
the STFT block by block as spectral.stft_samples hands it over, keeping
per-frame peaks and a per-bin power sum, never the magnitude matrix.  A
contour is its F0 track and hop alone: voicing (f0 > 0) and frame times
(multiples of the hop) follow from them.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .artifacts import finite, plain_name, positive, read_table, write_table
from .audio_io import AudioClip
from .corpus import CONTEXT_LABELS
from .spectral import stft_samples

PITCH_WINDOW_S = 0.100
PITCH_HOP_S = 0.016
GATE_DB = 20.0


class EmptyVoicedSetError(ValueError):
    """Contour has no voiced frames, so voiced statistics are undefined."""


@dataclass(frozen=True)
class PitchContour:
    """An F0 track: one estimate per frame, frame t at t * hop_s seconds.
    A frame is voiced exactly when its f0 is above 0; unvoiced frames carry 0."""

    f0_hz: np.ndarray
    hop_s: float


@dataclass(frozen=True)
class FeatureVector:
    """The ten contour statistics: five over all frames (unvoiced frames
    contribute 0 Hz) and five over voiced frames only.  Slopes are Hz/s;
    everything else is Hz."""

    f0_mean_all: float
    f0_std_all: float
    f0_max_all: float
    f0_min_all: float
    f0_slope_all: float
    f0_mean_voiced: float
    f0_std_voiced: float
    f0_max_voiced: float
    f0_min_voiced: float
    f0_slope_voiced: float

    def as_row(self) -> list[float]:
        return [getattr(self, name) for name in FEATURE_NAMES]


FEATURE_NAMES = tuple(field.name for field in fields(FeatureVector))
FEATURE_CSV_COLUMNS = {"utterance_id": plain_name, "emitter_id": str,
                       "context": CONTEXT_LABELS, "duration_s": positive,
                       **dict.fromkeys(FEATURE_NAMES, finite)}


def extract_f0(clip: AudioClip) -> PitchContour:
    """Per-frame F0 via gated spectral argmax.

    Steps: 100 ms / 16 ms magnitude STFT; reference level = the maximum over
    bins of the time-averaged squared magnitude; every time-frequency cell
    more than 20 dB below the reference (in energy) is zeroed; each frame's
    F0 is the bin-centre frequency of its largest surviving magnitude.
    Frames with nothing left after the gate are unvoiced, as are frames
    whose argmax is the DC bin (keeps the f0 = 0 <=> unvoiced convention).

    The gate needs no gated copy: squaring is monotone, so a frame whose
    largest cell passes the gate has the plain first argmax as its gated
    argmax, and a frame whose largest cell fails is zeroed whole.  So the
    STFT is reduced a block at a time, never held whole: each frame's first
    argmax and its magnitude, and a per-bin power sum that adds the frames'
    power rows one at a time in frame order: exactly the sum the mean over
    frames takes, whatever the block boundaries.

    Raises ClipTooShortError if the clip does not admit one analysis window.
    """
    window_samples = int(round(PITCH_WINDOW_S * clip.sample_rate))
    hop_samples = int(round(PITCH_HOP_S * clip.sample_rate))
    peak_bins, peak_mags = [], []
    power_sum = np.zeros(window_samples // 2 + 1)

    def reduce(_first: int, mags: np.ndarray) -> None:
        peak_bin = np.argmax(mags, axis=1)
        peak_bins.append(peak_bin)
        peak_mags.append(mags[np.arange(mags.shape[0]), peak_bin])
        for power in np.square(mags, out=mags):
            np.add(power_sum, power, out=power_sum)

    frames = stft_samples(clip, window_samples, hop_samples, reduce)
    peak_bin, peak_mag = np.concatenate(peak_bins), np.concatenate(peak_mags)
    reference = (power_sum / frames).max()
    threshold = reference * 10.0 ** (-GATE_DB / 10.0)
    voiced = (peak_mag * peak_mag >= threshold) & (peak_mag > 0.0) & (peak_bin > 0)
    f0 = np.where(voiced, peak_bin * (clip.sample_rate / window_samples), 0.0)
    return PitchContour(f0_hz=f0, hop_s=hop_samples / clip.sample_rate)


def _stats(times: np.ndarray, values: np.ndarray) -> tuple[float, ...]:
    """Mean, population std, max, min and least-squares slope (Hz/s; 0 below
    2 distinct times) of values at times.  The same ufunc calls, in the same
    order, as ndarray.mean, .std, .max and .min, each mean taken once."""
    n = values.size
    mean = np.add.reduce(values) / n
    deviation = values - mean
    std = np.sqrt(np.add.reduce(np.square(deviation)) / n)
    t = times - np.add.reduce(times) / n
    denom = float(np.dot(t, t))
    slope = 0.0 if denom == 0.0 else float(np.dot(t, deviation) / denom)
    return (float(mean), float(std), float(np.maximum.reduce(values)),
            float(np.minimum.reduce(values)), slope)


def contour_stats(contour: PitchContour) -> FeatureVector:
    """The ten contour statistics (population std, slopes against real time).

    Raises EmptyVoicedSetError when no frame is voiced (an empty track
    included); such utterances are flagged and excluded downstream.
    """
    f0 = contour.f0_hz
    mask = f0 > 0.0
    if not mask.any():
        raise EmptyVoicedSetError("contour has no voiced frames")
    t = np.arange(len(f0)) * contour.hop_s
    return FeatureVector(*_stats(t, f0), *_stats(t[mask], f0[mask]))


@dataclass(frozen=True)
class FeatureRecord:
    """One feature CSV row: utterance metadata plus its FeatureVector."""

    utterance_id: str
    emitter_id: str
    context: str
    duration_s: float
    features: FeatureVector


def write_feature_csv(path: str | Path, records: list[FeatureRecord],
                      comment: str | None = None) -> None:
    """Write the feature table, sorted by utterance id."""
    write_table(path, tuple(FEATURE_CSV_COLUMNS), (
        [rec.utterance_id, rec.emitter_id, rec.context, rec.duration_s,
         *rec.features.as_row()]
        for rec in sorted(records, key=lambda r: r.utterance_id)), comment)


def read_feature_csv(path: str | Path) -> list[FeatureRecord]:
    """Read a feature table written by write_feature_csv: read_table under
    FEATURE_CSV_COLUMNS, each utterance id once."""
    return [FeatureRecord(uid, emitter, context, duration, FeatureVector(*values))
            for uid, emitter, context, duration, *values
            in read_table(path, FEATURE_CSV_COLUMNS, unique=True)]
