"""Mono WAV reading and writing, the 3 s clip limit, and the per-file thread map.

load_wav keeps a clip in its file's own sample type with the power of two
that maps it to amplitudes (see AudioClip), so a 16-bit clip holds 2 bytes
a sample, not 8; the STFT folds that scale into its window.

The target corpora are mono recordings at 250 kHz.  Other rates are
accepted: load_wav keeps no state and logs nothing, and each per-file stage
logs one INFO notice per other rate it read (synth writes 50 kHz).  All
window/hop sample counts downstream derive from the actual rate, so nothing
else special-cases 250 kHz.  MAX_UTTERANCE_S is the one length limit:
load_wav refuses a longer file from its header, before it reads the
samples, and padded_length refuses a longer clip.
"""
from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_atomic

CORPUS_SAMPLE_RATE_HZ = 250_000
MAX_UTTERANCE_S = 3.0  # the filter's length limit, and the length export pads to

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bits per sample that each supported encoding may carry
_SAMPLE_BITS = {_WAVE_FORMAT_PCM: (8, 16, 24, 32), _WAVE_FORMAT_IEEE_FLOAT: (32, 64)}


class MalformedWavError(ValueError):
    """WAV container unreadable, truncated, or carrying no audio."""


class UnsupportedFormatError(ValueError):
    """WAV encoding outside the mono PCM / IEEE-float contract."""


class ClipTooLongError(ValueError):
    """Clip exceeds the fixed padding duration."""


@dataclass(frozen=True)
class AudioClip:
    """Mono audio whose amplitudes are samples * scale.

    load_wav gives the data chunk's own numbers (int16 for 8- and 16-bit
    PCM, int32 for 24- and 32-bit, float32 or float64 for float files) and
    the scale that maps integer PCM to [-1, 1]; a clip built from amplitudes
    has scale 1.  Integer and float samples keep their type, anything else
    becomes float64.  The scale is a positive power of two, so a sample
    times it, or times a window already multiplied by it, is exact.
    """

    samples: np.ndarray
    sample_rate: int
    scale: float = 1.0

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "iuf":
            samples = samples.astype(np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional")
        if samples.size == 0:
            raise ValueError("AudioClip samples must be non-empty")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not (self.scale > 0 and math.frexp(self.scale)[0] == 0.5):
            raise ValueError(f"scale must be a positive power of two, got {self.scale}")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


def _wav_header(fh, path: Path) -> tuple[int, int, int, int, int]:
    """(format tag, bits per sample, rate, data offset, data size) of a mono
    PCM or IEEE-float WAV whose data chunk holds whole frames.  Walks the
    chunks by seeking over their bodies, checking each size against the
    file's, and reads only the fmt body.

    Raises:
        MalformedWavError: unreadable/truncated container, empty data chunk,
            or fmt fields that do not describe the data.
        UnsupportedFormatError: multi-channel audio, compressed encodings or
            an unsupported sample width.
    """
    file_size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")
    fmt = data = None
    pos = 12
    while pos + 8 <= file_size:
        fh.seek(pos)
        cid, size = struct.unpack("<4sI", fh.read(8))
        if pos + 8 + size > file_size:
            raise MalformedWavError(
                f"{path}: chunk {cid!r} declares {size} bytes but file is truncated")
        if cid == b"fmt " and fmt is None:
            fmt = fh.read(size)
        elif cid == b"data" and data is None:
            data = (pos + 8, size)
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or len(fmt) < 16:
        raise MalformedWavError(f"{path}: missing or short fmt chunk")
    if data is None:
        raise MalformedWavError(f"{path}: missing data chunk")
    offset, size = data
    if size == 0:
        raise MalformedWavError(f"{path}: empty data chunk")

    tag, channels, rate, _byte_rate, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40:
            raise MalformedWavError(f"{path}: truncated extensible fmt chunk")
        (tag,) = struct.unpack_from("<H", fmt, 24)  # first bytes of SubFormat GUID
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: {channels} channels, mono required")
    if rate <= 0 or block_align == 0:
        raise MalformedWavError(f"{path}: invalid fmt fields")
    if tag not in _SAMPLE_BITS:
        raise UnsupportedFormatError(
            f"{path}: compressed or unknown encoding (format tag 0x{tag:04x})")
    if block_align != (bits + 7) // 8:  # one whole-byte sample per frame
        raise MalformedWavError(
            f"{path}: block_align {block_align} does not fit {bits}-bit samples")
    if size % block_align != 0:
        raise MalformedWavError(f"{path}: data chunk is not a whole number of frames")
    if bits not in _SAMPLE_BITS[tag]:
        raise UnsupportedFormatError(f"{path}: {bits}-bit samples not supported "
                                     f"for format tag 0x{tag:04x}")
    return tag, bits, rate, offset, size


def _decode(body: bytes, tag: int, bits: int) -> tuple[np.ndarray, float]:
    """The data chunk's samples in their own type, and the power of two that
    maps them to amplitudes: integer PCM to [-1, 1] by the type's maximum
    magnitude, float samples as they are.  16- and 32-bit PCM and float
    samples are views of body; 8-bit PCM becomes int16 and 24-bit int32."""
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        return np.frombuffer(body, dtype=f"<f{bits // 8}"), 1.0
    if bits == 8:  # unsigned around 128
        x = np.frombuffer(body, dtype=np.uint8).astype(np.int16)
        x -= 128
        return x, 2.0 ** -7
    if bits == 24:
        # each sample in the top three bytes of a little-endian int32 is the
        # sample times 2^8, so it takes the 32-bit scale
        raw = np.zeros((len(body) // 3, 4), dtype=np.uint8)
        raw[:, 1:] = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        return raw.view("<i4").reshape(-1), 2.0 ** -31
    return np.frombuffer(body, dtype=f"<i{bits // 8}"), 2.0 ** (1 - bits)


def load_wav(path: str | Path) -> AudioClip:
    """Read a mono PCM or IEEE-float WAV file.

    The clip holds the samples in their own type with the scale that maps
    them to amplitudes (see _decode): 2^-15 for 16-bit PCM, whose samples are
    a view of the data chunk's bytes, and 1 for float files.  Rejects a
    malformed or unsupported file (see _wav_header), then, unread, a file
    longer than MAX_UTTERANCE_S (ClipTooLongError), and a float file holding
    a NaN or infinite sample (MalformedWavError).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        tag, bits, rate, offset, size = _wav_header(fh, path)
        _padded_frames(size // ((bits + 7) // 8), rate)
        fh.seek(offset)
        samples, scale = _decode(fh.read(size), tag, bits)
    # only float samples can be non-finite, so PCM pays no check
    if tag == _WAVE_FORMAT_IEEE_FLOAT and not np.isfinite(samples).all():
        raise MalformedWavError(f"{path}: NaN or infinite float sample")
    return AudioClip(samples=samples, sample_rate=int(rate), scale=scale)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a mono 16-bit PCM WAV file: amplitudes times 32767, rounded and
    clipped to the int16 range.  The file is replaced atomically."""
    scaled = clip.samples * (32767.0 * clip.scale)  # exact: scale is a power of two
    np.rint(scaled, out=scaled)  # np.round at 0 decimals, without a new array
    np.clip(scaled, -32768, 32767, out=scaled)
    payload = scaled.astype("<i2")
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, clip.sample_rate,
                                clip.sample_rate * 2, 2, 16)
    data = b"data" + struct.pack("<I", payload.nbytes)
    riff = b"RIFF" + struct.pack("<I", 4 + len(fmt) + len(data) + payload.nbytes)
    write_atomic(path, riff + b"WAVE", fmt, data, memoryview(payload).cast("B"))


def padded_length(clip: AudioClip) -> int:
    """round(MAX_UTTERANCE_S * rate): the length in samples of the clip
    zero-padded at the tail to MAX_UTTERANCE_S.

    Raises ClipTooLongError if the clip is already longer than that.
    """
    return _padded_frames(clip.samples.size, clip.sample_rate)


def _padded_frames(frames: int, rate: int) -> int:
    """round(MAX_UTTERANCE_S * rate), or ClipTooLongError if frames exceed it."""
    target = int(round(MAX_UTTERANCE_S * rate))
    if frames > target:
        raise ClipTooLongError(f"{frames} samples exceed the "
                               f"{MAX_UTTERANCE_S} s target of {target}")
    return target


def _worker_count(items: int) -> int:
    """Workers for a map over items: one per CPU in this process's affinity
    mask, at most one per item."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items))


def map_ordered(fn, items):
    """Yield fn(item) for each item, in order, from a thread per CPU (numpy
    and file writes release the GIL).  An exception raised for an item is
    yielded as that item's result, so the caller accounts for it in order on
    its own thread; a caller that raises it again closes the map, which
    cancels the items not yet started and waits for the running ones."""
    def call(item):
        try:
            return fn(item)
        except Exception as exc:
            return exc

    with ThreadPoolExecutor(max_workers=_worker_count(len(items))) as pool:
        yield from pool.map(call, items)
