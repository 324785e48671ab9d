"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from usvpipe import svm
from usvpipe.audio_io import AudioClip


def brute_force_dft_magnitudes(frame: np.ndarray, block: int = 256) -> np.ndarray:
    """Half-spectrum DFT magnitudes straight from the definition.

    O(n^2) sum over exp(-2*pi*i*k*t/n), evaluated in small bin blocks to
    bound memory.  Independent of the FFT used by the code under test.
    """
    n = len(frame)
    t = np.arange(n)
    out = np.empty(n // 2 + 1)
    for start in range(0, n // 2 + 1, block):
        k = np.arange(start, min(start + block, n // 2 + 1))
        basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
        out[start:start + len(k)] = np.abs(basis @ frame)
    return out


def one_shot_stft(samples, window, hop):
    """Every frame's Hann-windowed rfft magnitude in one call, independent of
    the block-wise kernel under test."""
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    frames = np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]
    return np.abs(np.fft.rfft(frames * hann, axis=1))


def sine_clip(freq_hz: float, duration_s: float = 1.0, sample_rate: int = 50_000,
              amplitude: float = 0.5, phase: float = 0.0) -> AudioClip:
    """Pure sinusoid test clip."""
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return AudioClip(samples=amplitude * np.sin(2 * np.pi * freq_hz * t + phase),
                     sample_rate=sample_rate)


def weighted_primal(w, b, X, y, box) -> float:
    """The binary SVM objective with the bias regularised (augmented feature)."""
    margins = y * (X @ w + b)
    return 0.5 * (np.dot(w, w) + b * b) + float(box @ np.clip(1 - margins, 0, None))


def train_weighted(X, y, cost, weight_pos=1.0, weight_neg=1.0, pair=("+1", "-1")):
    """One class-weighted machine on +/-1 labels, trained as nested_select
    trains each class pair: its _pair_problem through _train_pairs."""
    return svm._train_pairs([svm._pair_problem(X, y, weight_pos, weight_neg)],
                            [pair], cost)[0]


def refine_grid_minimum(X, y, box, half_range=4.0, points=13, rounds=9):
    """Iterated grid refinement over (w1..wd, b): a deterministic fine search
    for the SVM objective, independent of the solver under test."""
    d = X.shape[1] + 1
    centre = np.zeros(d)
    for _ in range(rounds):
        axes = [np.linspace(c - half_range, c + half_range, points) for c in centre]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        vals = np.array([weighted_primal(v[:-1], v[-1], X, y, box) for v in mesh])
        centre = mesh[int(np.argmin(vals))]
        step = 2 * half_range / (points - 1)
        half_range = 1.5 * step
    return float(weighted_primal(centre[:-1], centre[-1], X, y, box)), centre


def write_raw_wav(path, *, channels=1, sample_rate=50_000, bits=16, fmt_tag=1,
                  payload=b"\x00\x00" * 100, block_align=None) -> None:
    """Hand-assembled WAV bytes so malformed/unsupported cases are explicit."""
    if block_align is None:
        block_align = channels * (bits // 8)
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


@pytest.fixture
def tmp_wav_factory(tmp_path):
    counter = {"n": 0}

    def make(**kwargs):
        counter["n"] += 1
        path = tmp_path / f"raw{counter['n']:02d}.wav"
        write_raw_wav(path, **kwargs)
        return path

    return make
