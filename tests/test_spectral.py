import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe import spectral
from usvpipe.audio_io import AudioClip, ClipTooLongError
from usvpipe.spectral import (_STFT_BLOCK_BYTES, ClipTooShortError, Spectrogram,
                              export_spectrogram, read_tensor, stft_samples,
                              write_tensor)

from conftest import brute_force_dft_magnitudes, one_shot_stft, sine_clip


def test_frame_and_bin_counts_at_corpus_rate():
    # 1 s at 250 kHz, 100 ms window (10 Hz bins), 16 ms hop -> 57 frames x
    # 12501 bins, per-frame argmax at bin 1100 for an 11 kHz tone
    clip = sine_clip(11_000, duration_s=1.0, sample_rate=250_000)
    frames, blocks = _kernel_blocks(clip, 25_000, 4000)
    mags = _stacked(blocks)
    assert frames == 57
    assert mags.shape == (57, 12_501)
    assert np.all(np.argmax(mags, axis=1) == 1100)


def test_sub_sample_window_rejected():
    clip = sine_clip(1000, duration_s=0.1, sample_rate=8000)
    with pytest.raises(ValueError):
        _kernel_blocks(clip, 0, 128)  # 10 us rounds to 0 samples at 8 kHz


def test_sine_argmax_matches_brute_force_dft():
    clip = sine_clip(11_000, duration_s=0.6, sample_rate=50_000)
    frames, blocks = _kernel_blocks(clip, 5000, 800)
    mags = _stacked(blocks)
    assert np.all(np.argmax(mags, axis=1) == 1100)

    # independent check: naive DFT of the same windowed frames
    win = int(0.100 * 50_000)
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    for t in (0, 7, frames - 1):
        frame = clip.samples[t * 800:t * 800 + win] * hann
        oracle = brute_force_dft_magnitudes(frame)
        assert int(np.argmax(oracle)) == 1100
        np.testing.assert_allclose(oracle, mags[t], rtol=1e-8, atol=1e-9)


def test_all_zero_clip_gives_zero_magnitudes():
    clip = AudioClip(samples=np.zeros(50_000), sample_rate=50_000)
    frames, blocks = _kernel_blocks(clip, 5000, 800)
    mags = _stacked(blocks)
    assert len(mags) == frames
    assert np.all(mags == 0.0)


def test_clip_shorter_than_window_rejected():
    clip = AudioClip(samples=np.zeros(2500), sample_rate=50_000)  # 50 ms
    with pytest.raises(ClipTooShortError):
        _kernel_blocks(clip, 5000, 800)


def _kernel_blocks(clip, window, hop, span=None):
    """(frame count, [(first frame, copy of block)]) from stft_samples."""
    blocks = []
    frames = stft_samples(clip, window, hop,
                          lambda first, mags: blocks.append((first, mags.copy())), span)
    return frames, blocks


def _stacked(blocks):
    """The blocks of _kernel_blocks as one frames x bins matrix."""
    return np.concatenate([mags for _, mags in blocks])


@settings(max_examples=60, deadline=None)
@given(length=st.integers(8, 4000), window=st.integers(2, 500),
       hop=st.integers(1, 600))
def test_frame_count_formula(length, window, hop):
    if length < window:
        length = window + length  # keep the precondition len >= win
    clip = AudioClip(samples=np.ones(length), sample_rate=8000)
    frames, blocks = _kernel_blocks(clip, window, hop)
    assert frames == (length - window) // hop + 1
    assert sum(len(mags) for _, mags in blocks) == frames
    assert len(one_shot_stft(clip.samples, window, hop)) == frames


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 3000), window=st.integers(1, 400),
       hop=st.integers(1, 500), pad=st.integers(0, 3000))
def test_kernel_pads_with_zeros_and_skips_frames_past_the_end(length, window, hop, pad):
    span = max(length, window) + pad
    samples = np.random.default_rng(length).uniform(-1, 1, length)
    frames, blocks = _kernel_blocks(AudioClip(samples, 8000), window, hop, span)
    reference = one_shot_stft(np.concatenate([samples, np.zeros(span - length)]),
                              window, hop)
    assert frames == len(reference)
    # blocks come in frame order and cover exactly the frames that start
    # inside the clip; every later frame is all padding, so exactly 0
    started = min(frames, -(-length // hop))
    assert [first for first, _ in blocks] == [
        sum(len(mags) for _, mags in blocks[:i]) for i in range(len(blocks))]
    handed = np.concatenate([mags for _, mags in blocks])
    assert np.array_equal(handed, reference[:started])
    assert not reference[started:].any()


@pytest.mark.parametrize("window", [4096, 5000])
@pytest.mark.parametrize("offset", ["one", "block-1", "block", "block+1"])
def test_block_wise_stft_equals_one_shot_rfft(window, offset):
    block = _STFT_BLOCK_BYTES // (16 * (window // 2 + 1))  # complex128 rows
    frames = {"one": 1, "block-1": block - 1, "block": block,
              "block+1": block + 1}[offset]
    hop = 500
    rng = np.random.default_rng(frames)
    clip = AudioClip(samples=rng.uniform(-1, 1, window + (frames - 1) * hop + 7),
                     sample_rate=50_000)
    kernel_frames, blocks = _kernel_blocks(clip, window, hop)
    assert np.array_equal(_stacked(blocks), one_shot_stft(clip.samples, window, hop))
    assert kernel_frames == frames
    assert [len(mags) for _, mags in blocks] == (
        [block] * (frames // block) + [frames % block] * (frames % block > 0))


def _noise_clip(length, rate, seed):
    return AudioClip(np.random.default_rng(seed).uniform(-1, 1, length), rate)


# (window, hop, clip length, span): the pitch windows at 250 and 50 kHz, then
# export's, each from a long clip to a short one, so every call reuses a
# buffer pair an earlier call left behind; then a window whose one row is
# over the block budget, so the pair grows, and calls that reuse the grown
# pair
WORKSPACE_CALLS = [
    (25_000, 4000, 750_000, None), (25_000, 4000, 26_000, None),
    (5000, 800, 150_000, None), (5000, 800, 5000, None),
    (4096, 2500, 750_000, None), (4096, 2500, 10_000, 750_000),
    (300_000, 4000, 308_001, None),
    (25_000, 4000, 300_007, None), (4096, 500, 4096 + 70 * 500, None),
]


def test_reused_workspace_gives_the_one_shot_stft_on_every_call():
    for i, (window, hop, length, span) in enumerate(WORKSPACE_CALLS):
        clip = _noise_clip(length, 250_000, i)
        frames, blocks = _kernel_blocks(clip, window, hop, span)
        padded = np.pad(clip.samples, (0, (span or length) - length))
        reference = one_shot_stft(padded, window, hop)
        started = min(frames, -(-length // hop))
        assert frames == len(reference)
        assert np.array_equal(_stacked(blocks), reference[:started])


def test_concurrent_calls_give_the_serial_results():
    calls = [(_noise_clip(length, 250_000, i), window, hop, span)
             for i, (window, hop, length, span) in enumerate(WORKSPACE_CALLS)]
    serial = [_kernel_blocks(*call) for call in calls]
    threads, checked, errors = 4, [], []
    barrier = threading.Barrier(threads)

    def work(k):
        try:
            barrier.wait(timeout=30)
            for _ in range(2):
                for step in range(len(calls)):
                    j = (step + k) % len(calls)  # each thread in its own order
                    frames, blocks = _kernel_blocks(*calls[j])
                    checked.append((frames == serial[j][0]
                                    and [first for first, _ in blocks]
                                    == [first for first, _ in serial[j][1]]
                                    and np.array_equal(_stacked(blocks),
                                                       _stacked(serial[j][1]))))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not errors
    assert not any(worker.is_alive() for worker in workers)
    assert checked == [True] * (threads * 2 * len(calls))


def test_each_call_gives_back_the_one_buffer_pair_it_took(monkeypatch):
    clip = _noise_clip(20_000, 250_000, 3)  # 7 export frames, one block

    def idle_after(run):
        idle = []
        monkeypatch.setattr(spectral, "_idle", idle)
        run()
        return idle

    # serial calls take the pair the previous one gave back
    assert len(idle_after(lambda: [_kernel_blocks(clip, 4096, 2500)
                                   for _ in range(3)])) == 1

    # a consume that runs the kernel again holds a second pair meanwhile
    nested = idle_after(lambda: stft_samples(
        clip, 4096, 2500, lambda *_: _kernel_blocks(clip, 4096, 2500)))
    assert len(nested) == 2

    # four calls all inside consume at once hold four pairs
    threads = 4
    barrier = threading.Barrier(threads)

    def run_threads():
        workers = [threading.Thread(target=stft_samples, args=(
            clip, 4096, 2500, lambda *_: barrier.wait(timeout=30)))
            for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)

    concurrent = idle_after(run_threads)
    assert not barrier.broken
    assert len(concurrent) == threads
    assert len({id(frames) for frames, _ in concurrent}) == threads


def test_consume_that_calls_the_kernel_again_gets_correct_blocks_at_both_levels():
    outer_clip = _noise_clip(750_000, 250_000, 1)
    inner_clip = _noise_clip(100_000, 250_000, 2)
    outer, inner = [], []

    def consume(first, mags):
        inner.append(_kernel_blocks(inner_clip, 4096, 2500))
        outer.append((first, mags.copy()))  # copied after the inner call ran

    frames = stft_samples(outer_clip, 25_000, 4000, consume)
    assert len(outer) > 1
    assert np.array_equal(_stacked(outer),
                          one_shot_stft(outer_clip.samples, 25_000, 4000))
    assert frames == len(_stacked(outer))
    inner_reference = one_shot_stft(inner_clip.samples, 4096, 2500)
    for inner_frames, blocks in inner:
        assert inner_frames == len(inner_reference)
        assert np.array_equal(_stacked(blocks), inner_reference)


def test_magnitudes_scale_linearly_with_amplitude():
    base = sine_clip(9000, duration_s=0.3, sample_rate=50_000, amplitude=0.25)
    mags1 = _stacked(_kernel_blocks(base, 5000, 800)[1])
    louder = AudioClip(samples=4.0 * base.samples, sample_rate=50_000)
    mags2 = _stacked(_kernel_blocks(louder, 5000, 800)[1])
    np.testing.assert_allclose(mags2, 4.0 * mags1, rtol=1e-12, atol=1e-12)


def test_bin_centre_sine_argmax_in_every_frame():
    for k in (700, 1234, 1700):
        clip = sine_clip(k * 10.0, duration_s=0.5, sample_rate=50_000)
        mags = _stacked(_kernel_blocks(clip, 5000, 800)[1])
        assert np.all(np.argmax(mags, axis=1) == k)


class TestExportSpectrogram:
    def test_shape_at_corpus_rate(self):
        clip = sine_clip(11_000, duration_s=1.0, sample_rate=250_000)
        spec = export_spectrogram(clip)
        assert spec.magnitudes.shape == (299, 2049)
        assert spec.magnitudes.dtype == np.dtype("<f4")
        assert (spec.frame_hop_s, spec.window_s, spec.bin_hz, spec.sample_rate) == (
            2500 / 250_000, 4096 / 250_000, 250_000 / 4096, 250_000)

    def test_silence_gives_zero_tensor(self):
        clip = AudioClip(samples=np.zeros(100_000), sample_rate=250_000)
        spec = export_spectrogram(clip)
        assert spec.magnitudes.shape == (299, 2049)
        assert np.all(spec.magnitudes == 0.0)

    def test_over_length_clip_propagates(self):
        clip = AudioClip(samples=np.zeros(775_000), sample_rate=250_000)  # 3.1 s
        with pytest.raises(ClipTooLongError):
            export_spectrogram(clip)


def _export_clip(rate, length, nan=False):
    samples = np.random.default_rng(length).uniform(-1, 1, length)
    if nan:
        samples[length // 2] = np.nan
    return AudioClip(samples, rate)


def _export_lengths(rate):
    """Clip lengths whose frames meet the clip's end in each way that matters."""
    hop, window, k = rate // 100, 4096, 23
    return {"1_sample": 1, "window-1": window - 1, "window": window,
            "window+1": window + 1, "hop*k-1": hop * k - 1, "hop*k": hop * k,
            "hop*k+1": hop * k + 1, "3_s": 3 * rate}


EXPORT_CASES = [(rate, name, length, False)
                for rate in (50_000, 250_000)
                for name, length in _export_lengths(rate).items()]
EXPORT_CASES += [(rate, "nan_sample", 3 * rate // 2, True) for rate in (50_000, 250_000)]


@pytest.mark.parametrize("rate,name,length,nan", EXPORT_CASES,
                         ids=[f"{rate}-{name}" for rate, name, _, _ in EXPORT_CASES])
def test_export_tensor_bytes_equal_one_shot_padded_reference(tmp_path, rate, name,
                                                            length, nan):
    clip = _export_clip(rate, length, nan)
    path = tmp_path / "t.usvt"
    write_tensor(export_spectrogram(clip), path)
    reference = one_shot_stft(np.pad(clip.samples, (0, 3 * rate - length)), 4096,
                              rate // 100)
    header = b"USVT" + struct.pack("<IIIII", 1, 1, 2, *reference.shape)
    assert path.read_bytes() == header + reference.astype("<f4").tobytes()


def test_export_and_write_never_hold_a_padded_copy(tmp_path):
    # 3 s at 250 kHz: the padded clip is 6 MB and the float64 magnitudes 4.9 MB
    clip = _export_clip(250_000, 750_000)
    tracemalloc.start()
    try:
        write_tensor(export_spectrogram(clip), tmp_path / "t.usvt")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


class TestTensorFormat:
    def test_file_size_is_header_plus_payload(self, tmp_path):
        clip = sine_clip(11_000, duration_s=0.2, sample_rate=250_000)
        spec = export_spectrogram(clip)
        path = tmp_path / "t.usvt"
        write_tensor(spec, path)
        assert path.stat().st_size == 24 + 299 * 2049 * 4

    def test_roundtrip_bit_exact(self, tmp_path):
        clip = sine_clip(8000, duration_s=0.4, sample_rate=50_000)
        spec = export_spectrogram(clip)
        path = tmp_path / "t.usvt"
        write_tensor(spec, path)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, spec.magnitudes.astype(np.float32))
        # writing the read-back again is byte-identical
        spec2 = Spectrogram(magnitudes=back.astype(np.float64),
                            frame_hop_s=spec.frame_hop_s, window_s=spec.window_s,
                            bin_hz=spec.bin_hz, sample_rate=spec.sample_rate)
        path2 = tmp_path / "t2.usvt"
        write_tensor(spec2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_magnitudes_that_are_no_matrix_are_refused(self):
        for magnitudes in (np.zeros(2049), np.zeros((1, 299, 2049))):
            with pytest.raises(ValueError) as refusal:
                Spectrogram(magnitudes=magnitudes, frame_hop_s=0.01, window_s=0.016384,
                            bin_hz=61.03515625, sample_rate=250_000)
            assert str(refusal.value) == "magnitudes must be a frames x bins matrix"

    def test_unwritable_path_raises_oserror(self, tmp_path):
        clip = sine_clip(8000, duration_s=0.4, sample_rate=50_000)
        spec = export_spectrogram(clip)
        (tmp_path / "a_file").write_bytes(b"")
        with pytest.raises(OSError):
            write_tensor(spec, tmp_path / "a_file" / "t.usvt")

    def test_header_fields(self, tmp_path):
        clip = sine_clip(8000, duration_s=0.4, sample_rate=50_000)
        spec = export_spectrogram(clip)
        path = tmp_path / "t.usvt"
        write_tensor(spec, path)
        header = path.read_bytes()[:24]
        assert header[:4] == b"USVT"
        import struct
        version, dtype, rank, frames, bins = struct.unpack_from("<IIIII", header, 4)
        assert (version, dtype, rank) == (1, 1, 2)
        assert (frames, bins) == spec.magnitudes.shape

    @pytest.mark.parametrize("damage, complaint", [
        (lambda data: b"USVX" + data[4:], "not a USVT tensor file"),
        (lambda data: data[:20], "not a USVT tensor file"),
        (lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
         "unsupported tensor header (version=2, dtype=1, rank=2)"),
        (lambda data: data[:-4], "payload size mismatch"),
    ], ids=["magic", "short", "version", "truncated"])
    def test_damaged_file_is_refused_by_name(self, tmp_path, damage, complaint):
        path = tmp_path / "t.usvt"
        write_tensor(export_spectrogram(sine_clip(8000, duration_s=0.4)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {complaint}")):
            read_tensor(path)
