"""Fundamental-frequency contour extraction and contour statistics.

The estimator is deliberately simple: long-window STFT, a relative 20 dB
noise gate, and a per-frame spectral argmax.  The gate reference is the
frequency bin with the maximum time-averaged energy, so the whole contour
is invariant to any positive rescaling of the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_table, write_table
from .audio_io import AudioClip
from .exceptions import EmptyVoicedSetError
from .spectral import stft

PITCH_WINDOW_S = 0.100
PITCH_HOP_S = 0.016
GATE_DB = 20.0

FEATURE_NAMES = (
    "f0_mean_all", "f0_std_all", "f0_max_all", "f0_min_all", "f0_slope_all",
    "f0_mean_voiced", "f0_std_voiced", "f0_max_voiced", "f0_min_voiced",
    "f0_slope_voiced",
)

FEATURE_CSV_HEADER = (
    "utterance_id", "emitter_id", "context", "duration_s") + FEATURE_NAMES


@dataclass(frozen=True)
class PitchContour:
    """Per-frame F0 estimates; unvoiced frames carry f0 = 0."""

    f0_hz: np.ndarray
    voiced: np.ndarray
    frame_times_s: np.ndarray

    def __post_init__(self):
        if not (len(self.f0_hz) == len(self.voiced) == len(self.frame_times_s)):
            raise ValueError("contour arrays must have equal length")

    @property
    def frame_count(self) -> int:
        return len(self.f0_hz)


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
    argmax, and a frame whose largest cell fails is zeroed whole.

    Raises ClipTooShortError if the clip does not admit one analysis window.
    """
    spec = stft(clip, PITCH_WINDOW_S, PITCH_HOP_S)
    mags = spec.magnitudes
    peak_bin = np.argmax(mags, axis=1)
    peak_mag = mags[np.arange(mags.shape[0]), peak_bin]
    reference = np.square(mags, out=mags).mean(axis=0).max()  # mags is now power
    threshold = reference * 10.0 ** (-GATE_DB / 10.0)
    voiced = (peak_mag * peak_mag >= threshold) & (peak_mag > 0.0) & (peak_bin > 0)
    f0 = np.where(voiced, peak_bin * spec.bin_hz, 0.0)
    return PitchContour(f0_hz=f0, voiced=voiced,
                        frame_times_s=spec.frame_times_s())


def _slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares line slope in Hz/s; 0 below 2 distinct times."""
    t = times - times.mean()
    denom = float(np.dot(t, t))
    if denom == 0.0:
        return 0.0
    return float(np.dot(t, values - values.mean()) / denom)


def contour_stats(contour: PitchContour) -> FeatureVector:
    """The ten contour statistics (population std, slopes against real time).

    Raises EmptyVoicedSetError when no frame is voiced; such utterances are
    flagged and excluded downstream.
    """
    if contour.frame_count == 0:
        raise ValueError("contour must have at least one frame")
    mask = np.asarray(contour.voiced, dtype=bool)
    if not mask.any():
        raise EmptyVoicedSetError("contour has no voiced frames")

    f0 = contour.f0_hz
    t = contour.frame_times_s
    fv, tv = f0[mask], t[mask]
    return FeatureVector(
        f0_mean_all=float(f0.mean()),
        f0_std_all=float(f0.std()),
        f0_max_all=float(f0.max()),
        f0_min_all=float(f0.min()),
        f0_slope_all=_slope(t, f0),
        f0_mean_voiced=float(fv.mean()),
        f0_std_voiced=float(fv.std()),
        f0_max_voiced=float(fv.max()),
        f0_min_voiced=float(fv.min()),
        f0_slope_voiced=_slope(tv, fv),
    )


@dataclass(frozen=True)
class FeatureRecord:
    """One feature CSV row: utterance metadata plus its FeatureVector."""

    utterance_id: str
    emitter_id: str
    context: str
    duration_s: float
    features: FeatureVector


def _fmt(x: float) -> str:
    return format(x, ".6g")


def write_feature_csv(path: str | Path, records: list[FeatureRecord],
                      comment: str | None = None) -> None:
    """Write the feature table, sorted by utterance id, floats to 6 significant digits."""
    write_table(path, FEATURE_CSV_HEADER, (
        [rec.utterance_id, rec.emitter_id, rec.context, _fmt(rec.duration_s)]
        + [_fmt(v) for v in rec.features.as_row()]
        for rec in sorted(records, key=lambda r: r.utterance_id)), comment)


def read_feature_csv(path: str | Path) -> list[FeatureRecord]:
    """Read a feature table written by write_feature_csv."""
    records = []
    for row in read_table(path, FEATURE_CSV_HEADER):
        values = [float(v) for v in row[3:]]
        records.append(FeatureRecord(
            utterance_id=row[0], emitter_id=row[1], context=row[2],
            duration_s=values[0], features=FeatureVector(*values[1:])))
    return records
