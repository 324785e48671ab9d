"""Magnitude STFTs and the binary tensor export format.

Two parameterisations are in play: long 100 ms windows for pitch analysis
(see pitch.py) and short 4096-sample windows for spectrogram export.  Both
run through one kernel, stft_samples: Hann window, FFT size equal to the
window length, no centre padding.  It transforms about 2 MB of spectrum at
a time and hands each magnitude block to a consumer, so no caller has to
hold the whole spectrogram.  Pitch analysis reduces the blocks as they
come; export stores them as float32 in its 3 s tensor, with the padding
read as zeros rather than copied.  That tensor is the only magnitude matrix
ever held whole; there is no float64 whole-matrix path.

The clip's samples stay in their own type (int16 for a 16-bit WAV); each
block copies its frames into float64 and multiplies them by the Hann
window times the clip's scale, so no float64 copy of the whole clip is
made.  The scale is a power of two, so the windowed frames are bit for bit
those of the amplitudes times the plain window.

The blocks live in two flat buffers: float64 for the windowed frames,
whose rows then take the magnitudes, and complex128 for the spectrum rfft
writes.  A call takes an idle pair from a lock-guarded list, or makes one,
and puts it back when it returns, so the next call (in any thread) reuses
the same pages instead of allocating, and the OS faulting in, two fresh
2 MB arrays per clip and per block.  A block is as many rows as fit the
budget in complex spectrum, and a row's float64 frame takes at most the
bytes of its spectrum, so each buffer is made at the budget and one pair
serves every window; only a window whose single row is over the budget
(262 144 samples or more) grows one.  The list holds as many pairs as calls
ever ran at once, about 4 MB each.
"""
from __future__ import annotations

import functools
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .artifacts import write_atomic
from .audio_io import AudioClip, padded_length

EXPORT_WINDOW_SAMPLES = 4096
EXPORT_HOP_S = 0.010

_TENSOR_MAGIC = b"USVT"
_TENSOR_VERSION = 1
_TENSOR_DTYPE_F32 = 1

# Complex spectrum transformed per rfft call, so the windowed copy and its
# spectrum stay small for any clip length instead of each matching the
# whole magnitude matrix.
_STFT_BLOCK_BYTES = 2 << 20


class ClipTooShortError(ValueError):
    """Clip shorter than one analysis window."""


@dataclass(frozen=True)
class Spectrogram:
    """Linear magnitude STFT, frames along axis 0, frequency bins along axis 1,
    as export_spectrogram returns it (float32)."""

    magnitudes: np.ndarray
    frame_hop_s: float
    window_s: float
    bin_hz: float
    sample_rate: int

    def __post_init__(self):
        if self.magnitudes.ndim != 2:
            raise ValueError("magnitudes must be a frames x bins matrix")


@functools.lru_cache(maxsize=8)
def _hann(n: int, scale: float) -> np.ndarray:
    """Periodic Hann window times a clip's scale (cached per length and
    scale, read-only).  The scale is a power of two, so samples times this
    window equal, bit for bit, amplitudes times the plain one."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window *= scale
    window.flags.writeable = False
    return window


# Idle (frames, spectrum) buffer pairs, each held by no running call.
_idle: list[tuple[np.ndarray, np.ndarray]] = []
_idle_lock = threading.Lock()


def _frame_count(clip: AudioClip, window_samples: int, hop_samples: int,
                 span: int | None) -> int:
    """Frames of the clip zero-padded to span samples (default: its length):
    floor((span - window) / hop) + 1."""
    if window_samples < 1 or hop_samples < 1:
        raise ValueError("window and hop must each span at least one sample")
    span = clip.samples.size if span is None else span
    if span < window_samples:
        raise ClipTooShortError(f"{span} samples but the analysis window "
                                f"needs {window_samples}")
    return (span - window_samples) // hop_samples + 1


def stft_samples(clip: AudioClip, window_samples: int, hop_samples: int,
                 consume: Callable[[int, np.ndarray], None],
                 span: int | None = None) -> int:
    """Magnitude STFT of the clip zero-padded at the tail to span samples
    (default: its own length, so no padding), handed to consume a block of
    frames at a time.  Returns the frame count.

    Frame t covers samples [t*hop, t*hop + window); the frame count is
    floor((span - window) / hop) + 1.  FFT size equals the window length,
    so the bin width is sample_rate / window_samples.  consume(first, mags)
    gets frames first, first + 1, ... as a frames x (window // 2 + 1)
    float64 block, blocks in frame order.  The block is a view of this
    call's buffer pair, which the next block reuses and, once this call
    returns, the next call that takes the pair from the idle list; so
    consume keeps what it needs and may overwrite it.  A consume that calls
    stft_samples itself, and a concurrent call, each get a pair of their own.
    Every row is the one-shot rfft magnitude of its own windowed frame.

    A frame that runs past the clip's end reads zeros there.  A frame that
    starts at or past the end holds only zeros, so its magnitudes are
    exactly 0: it is never transformed and never handed to consume.
    """
    frames = _frame_count(clip, window_samples, hop_samples, span)
    x = clip.samples
    started = min(frames, -(-x.size // hop_samples))
    inside = min(started, max(0, (x.size - window_samples) // hop_samples + 1))
    parts = [(0, x, inside)]
    if started > inside:
        # The frames that run past the end read a zero-padded copy of the
        # samples they cover, under window + ceil(window / hop) * hop of them.
        tail = np.zeros((started - inside - 1) * hop_samples + window_samples,
                        dtype=x.dtype)
        tail[:x.size - inside * hop_samples] = x[inside * hop_samples:]
        parts.append((inside, tail, started - inside))

    window = _hann(window_samples, clip.scale)
    bins = window_samples // 2 + 1
    block = max(1, _STFT_BLOCK_BYTES // (16 * bins))  # complex128 rows
    with _idle_lock:
        pair = _idle.pop() if _idle else None
    if pair is None or pair[1].size < bins:
        size = max(_STFT_BLOCK_BYTES // 16, bins)
        pair = np.empty(2 * size), np.empty(size, dtype=np.complex128)
    flat_frames, flat_spectrum = pair
    block_rows = min(block, started)
    buffer = flat_frames[:block_rows * window_samples].reshape(block_rows, window_samples)
    spectrum = flat_spectrum[:block_rows * bins].reshape(block_rows, bins)
    try:
        for offset, samples, count in parts:
            if count == 0:
                continue
            view = np.lib.stride_tricks.sliding_window_view(samples, window_samples)
            view = view[::hop_samples][:count]
            for start in range(0, count, block):
                rows = min(block, count - start)
                windowed = buffer[:rows]
                np.copyto(windowed, view[start:start + rows])
                windowed *= window
                np.fft.rfft(windowed, axis=1, out=spectrum[:rows])
                # Once transformed, the windowed frames are spent, so their
                # buffer takes the magnitudes.
                mags = buffer.reshape(-1)[:rows * bins].reshape(rows, bins)
                consume(offset + start, np.abs(spectrum[:rows], out=mags))
    finally:
        with _idle_lock:
            _idle.append((flat_frames, flat_spectrum))
    return frames


def export_spectrogram(clip: AudioClip) -> Spectrogram:
    """Spectrogram for external consumers: the clip zero-padded to
    audio_io.MAX_UTTERANCE_S (3 s), 4096-sample window, 10 ms hop.

    At 250 kHz this yields exactly 299 frames x 2049 bins.  Magnitudes are
    linear float32; consumers apply their own compression.  No padded copy
    of the clip is made, and frames that lie wholly in the padding stay 0
    without a transform.  Raises ClipTooLongError for a clip over 3 s.
    """
    span = padded_length(clip)
    hop_samples = int(round(EXPORT_HOP_S * clip.sample_rate))
    mags = np.zeros((_frame_count(clip, EXPORT_WINDOW_SAMPLES, hop_samples, span),
                     EXPORT_WINDOW_SAMPLES // 2 + 1), dtype="<f4")

    def store(first: int, block: np.ndarray) -> None:
        mags[first:first + block.shape[0]] = block

    stft_samples(clip, EXPORT_WINDOW_SAMPLES, hop_samples, store, span)
    return Spectrogram(
        magnitudes=mags,
        frame_hop_s=hop_samples / clip.sample_rate,
        window_s=EXPORT_WINDOW_SAMPLES / clip.sample_rate,
        bin_hz=clip.sample_rate / EXPORT_WINDOW_SAMPLES,
        sample_rate=clip.sample_rate,
    )


def write_tensor(spec: Spectrogram, path: str | Path) -> None:
    """Serialise the magnitude matrix as little-endian float32.

    Layout: magic "USVT", version u32, dtype u32 (1 = float32), rank u32 (2),
    dims u32 each (frames, bins), then the payload row-major.  The header is
    24 bytes for rank 2.  A C-ordered "<f4" matrix, as export_spectrogram
    returns, is written from its own buffer without a copy.
    """
    payload = np.ascontiguousarray(spec.magnitudes, dtype="<f4")
    frames, bins = payload.shape
    header = _TENSOR_MAGIC + struct.pack(
        "<IIIII", _TENSOR_VERSION, _TENSOR_DTYPE_F32, 2, frames, bins)
    write_atomic(path, header, memoryview(payload).cast("B"))


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
