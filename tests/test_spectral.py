import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe.audio_io import AudioClip
from usvpipe.exceptions import ClipTooShortError
from usvpipe.spectral import (_STFT_BLOCK_BYTES, export_spectrogram, read_tensor,
                              stft, stft_samples, write_tensor)

from conftest import brute_force_dft_magnitudes, sine_clip


def test_frame_and_bin_counts_at_corpus_rate():
    # 1 s at 250 kHz, 100 ms window, 16 ms hop -> 57 frames x 12501 bins,
    # 10 Hz bins, per-frame argmax at bin 1100 for an 11 kHz tone
    clip = sine_clip(11_000, duration_s=1.0, sample_rate=250_000)
    spec = stft(clip, 0.100, 0.016)
    assert spec.magnitudes.shape == (57, 12_501)
    assert spec.bin_hz == 10.0
    assert np.all(np.argmax(spec.magnitudes, axis=1) == 1100)


def test_sub_sample_window_rejected():
    clip = sine_clip(1000, duration_s=0.1, sample_rate=8000)
    with pytest.raises(ValueError):
        stft(clip, 0.00001, 0.016)


def test_sine_argmax_matches_brute_force_dft():
    clip = sine_clip(11_000, duration_s=0.6, sample_rate=50_000)
    spec = stft(clip, 0.100, 0.016)
    assert np.all(np.argmax(spec.magnitudes, axis=1) == 1100)

    # independent check: naive DFT of the same windowed frames
    win = int(0.100 * 50_000)
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    for t in (0, 7, spec.frame_count - 1):
        frame = clip.samples[t * 800:t * 800 + win] * hann
        oracle = brute_force_dft_magnitudes(frame)
        assert int(np.argmax(oracle)) == 1100
        np.testing.assert_allclose(oracle, spec.magnitudes[t], rtol=1e-8, atol=1e-9)


def test_all_zero_clip_gives_zero_magnitudes():
    clip = AudioClip(samples=np.zeros(50_000), sample_rate=50_000)
    spec = stft(clip, 0.100, 0.016)
    assert np.all(spec.magnitudes == 0.0)


def test_clip_shorter_than_window_rejected():
    clip = AudioClip(samples=np.zeros(2500), sample_rate=50_000)  # 50 ms
    with pytest.raises(ClipTooShortError):
        stft(clip, 0.100, 0.016)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(8, 4000), window=st.integers(2, 500),
       hop=st.integers(1, 600))
def test_frame_count_formula(length, window, hop):
    if length < window:
        length = window + length  # keep the precondition len >= win
    clip = AudioClip(samples=np.ones(length), sample_rate=8000)
    spec = stft_samples(clip, window, hop)
    assert spec.frame_count == (length - window) // hop + 1


@pytest.mark.parametrize("window", [4096, 5000])
@pytest.mark.parametrize("offset", ["one", "block-1", "block", "block+1"])
def test_block_wise_stft_equals_one_shot_rfft(window, offset):
    block = _STFT_BLOCK_BYTES // (8 * window)
    frames = {"one": 1, "block-1": block - 1, "block": block,
              "block+1": block + 1}[offset]
    hop = 500
    rng = np.random.default_rng(frames)
    clip = AudioClip(samples=rng.uniform(-1, 1, window + (frames - 1) * hop + 7),
                     sample_rate=50_000)
    spec = stft_samples(clip, window, hop)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    windowed = np.lib.stride_tricks.sliding_window_view(clip.samples, window)[::hop]
    assert np.array_equal(spec.magnitudes,
                          np.abs(np.fft.rfft(windowed * hann, axis=1)))
    assert spec.frame_count == frames


def test_magnitudes_scale_linearly_with_amplitude():
    base = sine_clip(9000, duration_s=0.3, sample_rate=50_000, amplitude=0.25)
    spec1 = stft(base, 0.1, 0.016)
    spec2 = stft(AudioClip(samples=4.0 * base.samples, sample_rate=50_000), 0.1, 0.016)
    np.testing.assert_allclose(spec2.magnitudes, 4.0 * spec1.magnitudes,
                               rtol=1e-12, atol=1e-12)


def test_bin_centre_sine_argmax_in_every_frame():
    for k in (700, 1234, 1700):
        clip = sine_clip(k * 10.0, duration_s=0.5, sample_rate=50_000)
        spec = stft(clip, 0.1, 0.016)
        assert np.all(np.argmax(spec.magnitudes, axis=1) == k)


class TestExportSpectrogram:
    def test_shape_at_corpus_rate(self):
        clip = sine_clip(11_000, duration_s=1.0, sample_rate=250_000)
        spec = export_spectrogram(clip)
        assert spec.magnitudes.shape == (299, 2049)

    def test_silence_gives_zero_tensor(self):
        clip = AudioClip(samples=np.zeros(100_000), sample_rate=250_000)
        spec = export_spectrogram(clip)
        assert spec.magnitudes.shape == (299, 2049)
        assert np.all(spec.magnitudes == 0.0)

    def test_over_length_clip_propagates(self):
        from usvpipe.exceptions import ClipTooLongError
        clip = AudioClip(samples=np.zeros(775_000), sample_rate=250_000)  # 3.1 s
        with pytest.raises(ClipTooLongError):
            export_spectrogram(clip)


class TestTensorFormat:
    def test_file_size_is_header_plus_payload(self, tmp_path):
        clip = sine_clip(11_000, duration_s=0.2, sample_rate=250_000)
        spec = export_spectrogram(clip)
        path = tmp_path / "t.usvt"
        write_tensor(spec, path)
        assert path.stat().st_size == 24 + 299 * 2049 * 4

    def test_roundtrip_bit_exact(self, tmp_path):
        clip = sine_clip(8000, duration_s=0.4, sample_rate=50_000)
        spec = stft(clip, 0.1, 0.016)
        path = tmp_path / "t.usvt"
        write_tensor(spec, path)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, spec.magnitudes.astype(np.float32))
        # writing the read-back again is byte-identical
        from usvpipe.spectral import Spectrogram
        spec2 = Spectrogram(magnitudes=back.astype(np.float64),
                            frame_hop_s=spec.frame_hop_s, window_s=spec.window_s,
                            bin_hz=spec.bin_hz, sample_rate=spec.sample_rate)
        path2 = tmp_path / "t2.usvt"
        write_tensor(spec2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        clip = sine_clip(8000, duration_s=0.4, sample_rate=50_000)
        spec = stft(clip, 0.1, 0.016)
        with pytest.raises(OSError):
            write_tensor(spec, tmp_path / "missing_dir" / "t.usvt")

    def test_header_fields(self, tmp_path):
        clip = sine_clip(8000, duration_s=0.4, sample_rate=50_000)
        spec = stft(clip, 0.1, 0.016)
        path = tmp_path / "t.usvt"
        write_tensor(spec, path)
        header = path.read_bytes()[:24]
        assert header[:4] == b"USVT"
        import struct
        version, dtype, rank, frames, bins = struct.unpack_from("<IIIII", header, 4)
        assert (version, dtype, rank) == (1, 1, 2)
        assert (frames, bins) == spec.magnitudes.shape
