"""Magnitude STFTs and the binary tensor export format.

Two parameterisations are in play: long 100 ms windows for pitch analysis
(see pitch.py) and short 4096-sample windows for spectrogram export.  Both
share the same core: Hann window, FFT size equal to the window length, no
centre padding, frames fully inside the signal.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_atomic
from .audio_io import AudioClip, pad_to_duration
from .exceptions import ClipTooShortError

EXPORT_WINDOW_SAMPLES = 4096
EXPORT_HOP_S = 0.010
EXPORT_PAD_S = 3.0

_TENSOR_MAGIC = b"USVT"
_TENSOR_VERSION = 1
_TENSOR_DTYPE_F32 = 1

# Frames windowed and transformed per rfft call: about 2 MB of float64
# frames, so the windowed copy and its complex spectrum stay small for any
# clip length instead of each matching the whole magnitude matrix.
_STFT_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class Spectrogram:
    """Linear magnitude STFT, frames along axis 0, frequency bins along axis 1."""

    magnitudes: np.ndarray
    frame_hop_s: float
    window_s: float
    bin_hz: float
    sample_rate: int

    def __post_init__(self):
        if self.magnitudes.ndim != 2:
            raise ValueError("magnitudes must be a frames x bins matrix")

    @property
    def frame_count(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def bin_count(self) -> int:
        return self.magnitudes.shape[1]

    def frame_times_s(self) -> np.ndarray:
        """Start time of every frame in seconds."""
        return np.arange(self.frame_count) * self.frame_hop_s

    def bin_frequencies_hz(self) -> np.ndarray:
        return np.arange(self.bin_count) * self.bin_hz


@functools.lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    """Periodic Hann window (cached per length, read-only)."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def stft_samples(clip: AudioClip, window_samples: int, hop_samples: int) -> Spectrogram:
    """STFT with explicit sample counts.

    Frame t covers samples [t*hop, t*hop + window); the frame count is
    floor((len - window) / hop) + 1.  FFT size equals the window length,
    so the bin width is sample_rate / window_samples.  Frames are windowed
    and transformed a block at a time straight into the magnitude matrix;
    every row is the same one-shot rfft of its own windowed frame.
    """
    if window_samples < 1 or hop_samples < 1:
        raise ValueError("window and hop must each span at least one sample")
    x = clip.samples
    if x.size < window_samples:
        raise ClipTooShortError(
            f"{clip.source_id or 'clip'}: {x.size} samples but the analysis "
            f"window needs {window_samples}")
    frames = np.lib.stride_tricks.sliding_window_view(x, window_samples)[::hop_samples]
    window = _hann(window_samples)
    mags = np.empty((frames.shape[0], window_samples // 2 + 1))
    block = max(1, _STFT_BLOCK_BYTES // (frames.itemsize * window_samples))
    for start in range(0, frames.shape[0], block):
        np.abs(np.fft.rfft(frames[start:start + block] * window, axis=1),
               out=mags[start:start + block])
    return Spectrogram(
        magnitudes=mags,
        frame_hop_s=hop_samples / clip.sample_rate,
        window_s=window_samples / clip.sample_rate,
        bin_hz=clip.sample_rate / window_samples,
        sample_rate=clip.sample_rate,
    )


def stft(clip: AudioClip, window_s: float, hop_s: float) -> Spectrogram:
    """STFT with window/hop given in seconds, rounded to whole samples."""
    window_samples = int(round(window_s * clip.sample_rate))
    hop_samples = int(round(hop_s * clip.sample_rate))
    return stft_samples(clip, window_samples, hop_samples)


def export_spectrogram(clip: AudioClip) -> Spectrogram:
    """Spectrogram for external consumers: pad to 3 s, 4096-sample window, 10 ms hop.

    At 250 kHz this yields exactly 299 frames x 2049 bins.  Magnitudes are
    linear; consumers apply their own compression.
    """
    padded = pad_to_duration(clip, EXPORT_PAD_S)
    hop_samples = int(round(EXPORT_HOP_S * clip.sample_rate))
    return stft_samples(padded, EXPORT_WINDOW_SAMPLES, hop_samples)


def write_tensor(spec: Spectrogram, path: str | Path) -> None:
    """Serialise the magnitude matrix as little-endian float32.

    Layout: magic "USVT", version u32, dtype u32 (1 = float32), rank u32 (2),
    dims u32 each (frames, bins), then the payload row-major.  The header is
    24 bytes for rank 2.
    """
    frames, bins = spec.magnitudes.shape
    header = _TENSOR_MAGIC + struct.pack(
        "<IIIII", _TENSOR_VERSION, _TENSOR_DTYPE_F32, 2, frames, bins)
    write_atomic(path, header + spec.magnitudes.astype("<f4").tobytes(order="C"))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read back a tensor file written by write_tensor; returns the float32 matrix."""
    data = Path(path).read_bytes()
    if len(data) < 24 or data[:4] != _TENSOR_MAGIC:
        raise ValueError(f"{path}: not a USVT tensor file")
    version, dtype, rank, frames, bins = struct.unpack_from("<IIIII", data, 4)
    if version != _TENSOR_VERSION or dtype != _TENSOR_DTYPE_F32 or rank != 2:
        raise ValueError(f"{path}: unsupported tensor header "
                         f"(version={version}, dtype={dtype}, rank={rank})")
    expected = 24 + frames * bins * 4
    if len(data) != expected:
        raise ValueError(f"{path}: payload size mismatch "
                         f"({len(data)} bytes, expected {expected})")
    return np.frombuffer(data, dtype="<f4", offset=24).reshape(frames, bins)
