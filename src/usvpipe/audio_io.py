"""Mono WAV reading/writing and fixed-duration zero padding.

The target corpora are mono recordings at 250 kHz.  Other rates are
accepted with a warning (synthetic fixtures deliberately use lower rates);
all window/hop sample counts downstream derive from the actual rate, so
nothing else special-cases 250 kHz.
"""
from __future__ import annotations

import logging
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ClipTooLongError, MalformedWavError, UnsupportedFormatError

log = logging.getLogger(__name__)

CORPUS_SAMPLE_RATE_HZ = 250_000

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bits per sample that each supported encoding may carry
_SAMPLE_BITS = {_WAVE_FORMAT_PCM: (8, 16, 24, 32), _WAVE_FORMAT_IEEE_FLOAT: (32, 64)}

# one warning per unexpected rate per process, not per file, also when
# several threads load files at once
_warned_rates: set[int] = set()
_warned_rates_lock = threading.Lock()


@dataclass(frozen=True)
class AudioClip:
    """Mono audio with amplitudes normalised to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional")
        if samples.size == 0:
            raise ValueError("AudioClip samples must be non-empty")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
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


def _decode(body: bytes, tag: int, bits: int) -> np.ndarray:
    """Float samples as-is; integer PCM scaled to [-1, 1] by the type's
    maximum magnitude."""
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        return np.frombuffer(body, dtype=f"<f{bits // 8}").astype(np.float64)
    if bits == 8:
        x = np.frombuffer(body, dtype=np.uint8).astype(np.float64)
        return (x - 128.0) / 128.0
    if bits == 24:
        raw = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        x = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        x = (x << 8) >> 8  # sign-extend from 24 bits
        return x.astype(np.float64) / float(2 ** 23)
    return (np.frombuffer(body, dtype=f"<i{bits // 8}").astype(np.float64)
            / float(2 ** (bits - 1)))


def load_wav(path: str | Path) -> AudioClip:
    """Read a mono PCM or IEEE-float WAV file.

    Integer samples are scaled to [-1, 1] by the type's maximum magnitude
    (e.g. 32768 for 16-bit); float samples are taken as-is.  Rejects exactly
    the files wav_duration rejects, with the same errors (see _wav_header).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        tag, bits, rate, offset, size = _wav_header(fh, path)
        fh.seek(offset)
        samples = _decode(fh.read(size), tag, bits)

    if rate != CORPUS_SAMPLE_RATE_HZ:
        with _warned_rates_lock:
            first = rate not in _warned_rates
            _warned_rates.add(rate)
        if first:
            log.warning("sample rate %d Hz differs from the expected corpus rate "
                        "%d Hz", rate, CORPUS_SAMPLE_RATE_HZ)
    return AudioClip(samples=samples, sample_rate=int(rate), source_id=path.stem)


def wav_duration(path: str | Path) -> float:
    """Duration in seconds from the WAV header, without reading the samples;
    raises for exactly the files load_wav raises for."""
    path = Path(path)
    with open(path, "rb") as fh:
        _tag, bits, rate, _offset, size = _wav_header(fh, path)
    return (size // ((bits + 7) // 8)) / rate


def write_wav(path: str | Path, clip: AudioClip, encoding: str = "int16") -> None:
    """Write a mono WAV file, either 16-bit PCM or 32-bit IEEE float."""
    path = Path(path)
    if encoding == "int16":
        tag, bits = _WAVE_FORMAT_PCM, 16
        scaled = np.clip(np.round(clip.samples * 32767.0), -32768, 32767)
        payload = scaled.astype("<i2").tobytes()
    elif encoding == "float32":
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
        payload = clip.samples.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown encoding: {encoding}")

    block_align = bits // 8
    fmt = struct.pack("<HHIIHH", tag, 1, clip.sample_rate,
                      clip.sample_rate * block_align, block_align, bits)
    chunks = [b"fmt " + struct.pack("<I", len(fmt)) + fmt]
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        chunks.append(b"fact" + struct.pack("<II", 4, clip.samples.size))
    chunks.append(b"data" + struct.pack("<I", len(payload)) + payload)
    body = b"".join(chunks)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def pad_to_duration(clip: AudioClip, duration_s: float) -> AudioClip:
    """Zero-pad a clip at the tail to exactly round(duration_s * rate) samples.

    Raises ClipTooLongError if the clip is already longer than the target.
    """
    target = int(round(duration_s * clip.sample_rate))
    n = clip.samples.size
    if n > target:
        raise ClipTooLongError(
            f"{clip.source_id or 'clip'}: {n} samples exceed the "
            f"{duration_s} s target of {target}")
    if n == target:
        return clip
    padded = np.zeros(target, dtype=np.float64)
    padded[:n] = clip.samples
    return AudioClip(samples=padded, sample_rate=clip.sample_rate,
                     source_id=clip.source_id)
