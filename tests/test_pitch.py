import numpy as np
import pytest

from usvpipe import pitch
from usvpipe.audio_io import AudioClip
from usvpipe.exceptions import ClipTooShortError, EmptyVoicedSetError
from usvpipe.pitch import (GATE_DB, FeatureRecord, FeatureVector, PitchContour,
                           contour_stats, extract_f0, read_feature_csv,
                           write_feature_csv)
from usvpipe.spectral import Spectrogram

from conftest import sine_clip


class TestExtractF0:
    def test_pure_tone_every_frame_voiced_at_tone_bin(self):
        clip = sine_clip(11_000, duration_s=1.0, sample_rate=50_000)
        contour = extract_f0(clip)
        assert contour.frame_count == 57
        assert contour.voiced.all()
        np.testing.assert_array_equal(contour.f0_hz, 11_000.0)

    def test_minus_30db_interferer_never_selected(self):
        t = np.arange(50_000) / 50_000
        main = 0.5 * np.sin(2 * np.pi * 11_000 * t)
        weak = 0.5 * 10 ** (-30 / 20) * np.sin(2 * np.pi * 5000 * t)
        contour = extract_f0(AudioClip(samples=main + weak, sample_rate=50_000))
        assert contour.voiced.all()
        assert np.all(np.abs(contour.f0_hz - 11_000.0) <= 5.0)

    def test_all_zero_clip_every_frame_unvoiced(self):
        contour = extract_f0(AudioClip(samples=np.zeros(50_000), sample_rate=50_000))
        assert not contour.voiced.any()
        assert np.all(contour.f0_hz == 0.0)

    def test_too_short_clip_propagates(self):
        with pytest.raises(ClipTooShortError):
            extract_f0(AudioClip(samples=np.zeros(2000), sample_rate=50_000))

    def test_gate_is_relative_to_signal_level(self):
        clip = sine_clip(9000, duration_s=0.5, sample_rate=50_000, amplitude=0.4)
        base = extract_f0(clip)
        for scale in (0.1, 10.0):
            scaled = extract_f0(AudioClip(samples=scale * clip.samples,
                                          sample_rate=50_000))
            np.testing.assert_array_equal(scaled.voiced, base.voiced)
            np.testing.assert_array_equal(scaled.f0_hz, base.f0_hz)

    def test_unvoiced_iff_zero_f0(self):
        # quiet tail: tone then near-silence; gated tail frames must be unvoiced
        t = np.arange(25_000) / 50_000
        loud = 0.8 * np.sin(2 * np.pi * 8000 * t)
        quiet = 1e-4 * np.sin(2 * np.pi * 8000 * t)
        contour = extract_f0(AudioClip(samples=np.concatenate([loud, quiet]),
                                       sample_rate=50_000))
        assert contour.voiced.any() and not contour.voiced.all()
        np.testing.assert_array_equal(contour.voiced, contour.f0_hz > 0)


def gated_argmax_oracle(mags: np.ndarray, bin_hz: float):
    """The original gate, kept as an oracle: zero every cell more than 20 dB
    (in energy) below the reference, then take each frame's argmax."""
    power = mags ** 2
    reference = power.mean(axis=0).max()
    threshold = reference * 10.0 ** (-GATE_DB / 10.0)
    gated = np.where(power >= threshold, mags, 0.0)
    peak_bin = np.argmax(gated, axis=1)
    peak_mag = gated[np.arange(gated.shape[0]), peak_bin]
    voiced = (peak_mag > 0.0) & (peak_bin > 0)
    return np.where(voiced, peak_bin * bin_hz, 0.0), voiced


def _sweep(f_start, f_stop, duration_s, sample_rate):
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    phase = 2 * np.pi * (f_start * t + 0.5 * (f_stop - f_start) / duration_s * t * t)
    return 0.6 * np.sin(phase)


def _noisy_tone():
    rng = np.random.default_rng(12)
    t = np.arange(40_000) / 50_000
    return 0.4 * np.sin(2 * np.pi * 9000 * t) + 0.05 * rng.standard_normal(t.size)


def _fading_tone():
    t = np.arange(30_000) / 50_000
    return np.sin(2 * np.pi * 12_000 * t) * np.exp(-8.0 * t)  # tail falls below the gate


def _nan_clip():
    samples = _noisy_tone().astype(np.float32).astype(np.float64)
    samples[20_000] = np.nan
    return samples


ORACLE_CLIPS = {
    "sweep_250k": lambda: AudioClip(_sweep(20_000, 60_000, 0.4, 250_000), 250_000),
    "noisy_50k": lambda: AudioClip(_noisy_tone(), 50_000),
    "silence": lambda: AudioClip(np.zeros(20_000), 50_000),
    "one_frame": lambda: AudioClip(_noisy_tone()[:5000], 50_000),
    "fading_below_gate": lambda: AudioClip(_fading_tone(), 50_000),
    "float_with_nan": lambda: AudioClip(_nan_clip(), 50_000),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CLIPS))
def test_extract_f0_matches_gated_argmax_oracle(monkeypatch, name):
    seen = []

    def recording_stft(clip, window_s, hop_s):
        spec = pitch_stft(clip, window_s, hop_s)
        seen.append((spec.magnitudes.copy(), spec))  # extract_f0 squares in place
        return spec

    pitch_stft = pitch.stft
    monkeypatch.setattr(pitch, "stft", recording_stft)
    contour = extract_f0(ORACLE_CLIPS[name]())
    (mags, spec), = seen
    f0, voiced = gated_argmax_oracle(mags, spec.bin_hz)
    assert np.array_equal(contour.f0_hz, f0)
    assert np.array_equal(contour.voiced, voiced)
    assert np.array_equal(contour.frame_times_s, spec.frame_times_s())
    if name == "fading_below_gate":
        assert voiced[0] and not voiced[-1]
    if name == "one_frame":
        assert contour.frame_count == 1


def test_extract_f0_matches_oracle_on_exact_argmax_ties(monkeypatch):
    # rows: tie above the gate (first wins), tie with the DC bin, tie below
    # the gate, all-zero row
    mags = np.array([[0.0, 3.0, 1.0, 3.0, 2.0],
                     [3.0, 1.0, 3.0, 0.5, 0.0],
                     [0.0, 0.1, 0.05, 0.1, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0]])
    spec = Spectrogram(magnitudes=mags.copy(), frame_hop_s=0.016, window_s=0.1,
                       bin_hz=10.0, sample_rate=50_000)
    monkeypatch.setattr(pitch, "stft", lambda clip, window_s, hop_s: spec)
    contour = extract_f0(AudioClip(np.zeros(5000), 50_000))
    f0, voiced = gated_argmax_oracle(mags, 10.0)
    assert np.array_equal(contour.f0_hz, f0)
    assert np.array_equal(contour.voiced, voiced)
    assert contour.f0_hz.tolist() == [10.0, 0.0, 0.0, 0.0]


class TestContourStats:
    def test_constant_contour(self):
        n = 57
        contour = PitchContour(f0_hz=np.full(n, 11_000.0),
                               voiced=np.ones(n, dtype=bool),
                               frame_times_s=np.arange(n) * 0.016)
        fv = contour_stats(contour)
        assert fv.f0_mean_all == fv.f0_mean_voiced == 11_000.0
        assert fv.f0_std_all == fv.f0_std_voiced == 0.0
        assert fv.f0_slope_all == fv.f0_slope_voiced == 0.0

    def test_linear_chirp_slope_recovered(self):
        times = np.arange(0.0, 1.0, 0.016)
        f0 = 8000.0 + 4000.0 * times
        contour = PitchContour(f0_hz=f0, voiced=np.ones(len(f0), dtype=bool),
                               frame_times_s=times)
        fv = contour_stats(contour)
        assert abs(fv.f0_slope_voiced - 4000.0) <= 40.0  # within 1 %
        assert abs(fv.f0_mean_voiced - f0.mean()) < 1e-9

    def test_half_voiced_arithmetic(self):
        f0 = np.array([10_000.0] * 5 + [0.0] * 5)
        contour = PitchContour(f0_hz=f0, voiced=f0 > 0,
                               frame_times_s=np.arange(10) * 0.016)
        fv = contour_stats(contour)
        assert fv.f0_mean_all == 5000.0
        assert fv.f0_mean_voiced == 10_000.0
        assert fv.f0_max_all == fv.f0_max_voiced == 10_000.0
        assert fv.f0_min_all == 0.0
        assert fv.f0_min_voiced == 10_000.0

    def test_no_voiced_frames_is_an_error(self):
        contour = PitchContour(f0_hz=np.zeros(5), voiced=np.zeros(5, dtype=bool),
                               frame_times_s=np.arange(5) * 0.016)
        with pytest.raises(EmptyVoicedSetError):
            contour_stats(contour)

    def test_single_voiced_frame_flags_degenerate_slope(self):
        f0 = np.array([0.0, 9000.0, 0.0])
        contour = PitchContour(f0_hz=f0, voiced=f0 > 0,
                               frame_times_s=np.arange(3) * 0.016)
        fv = contour_stats(contour)
        assert fv.f0_slope_voiced == 0.0

    def test_slope_sign_flips_under_time_reversal(self):
        times = np.arange(20) * 0.016
        f0 = 9000.0 + 150.0 * np.arange(20)
        fwd = contour_stats(PitchContour(f0_hz=f0, voiced=np.ones(20, bool),
                                         frame_times_s=times))
        rev = contour_stats(PitchContour(f0_hz=f0[::-1].copy(),
                                         voiced=np.ones(20, bool),
                                         frame_times_s=times))
        assert fwd.f0_slope_all == pytest.approx(-rev.f0_slope_all)

    def test_voiced_stats_invariant_to_inserting_unvoiced_frames(self):
        times = np.arange(10) * 0.016
        f0 = np.linspace(8000, 9000, 10)
        base = contour_stats(PitchContour(f0_hz=f0, voiced=np.ones(10, bool),
                                          frame_times_s=times))
        # splice three unvoiced frames into the middle, keeping voiced timing
        f0_aug = np.concatenate([f0[:5], np.zeros(3), f0[5:]])
        voiced_aug = f0_aug > 0
        times_aug = np.concatenate([times[:5], times[4] + np.array([1, 2, 3]) * 1e-3,
                                    times[5:]])
        aug = contour_stats(PitchContour(f0_hz=f0_aug, voiced=voiced_aug,
                                         frame_times_s=times_aug))
        for name in ("f0_mean_voiced", "f0_std_voiced", "f0_max_voiced",
                     "f0_min_voiced", "f0_slope_voiced"):
            assert getattr(aug, name) == pytest.approx(getattr(base, name))


class TestEndToEndPitch:
    def test_tone_through_extractor_has_exact_zero_std(self):
        fv = contour_stats(extract_f0(sine_clip(11_000, 1.0, 50_000)))
        assert fv.f0_mean_voiced == 11_000.0
        assert fv.f0_std_voiced == 0.0

    def test_interferer_leaves_features_unchanged(self):
        clip = sine_clip(11_000, 1.0, 50_000)
        t = np.arange(50_000) / 50_000
        weak = 0.5 * 10 ** (-30 / 20) * np.sin(2 * np.pi * 5000 * t)
        fv1 = contour_stats(extract_f0(clip))
        fv2 = contour_stats(extract_f0(AudioClip(samples=clip.samples + weak,
                                                 sample_rate=50_000)))
        assert fv1.f0_mean_voiced == fv2.f0_mean_voiced


def test_feature_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_feature_csv(path)


def test_feature_csv_roundtrip(tmp_path):
    fv = FeatureVector(5000.0, 12.5, 10_000.0, 0.0, -3.25,
                       10_000.0, 1.5, 10_010.0, 9990.0, 4.5)
    records = [FeatureRecord("u002", "batA", "feeding", 0.75, fv),
               FeatureRecord("u001", "batB", "biting", 1.0, fv)]
    path = tmp_path / "features.csv"
    write_feature_csv(path, records, comment="tool test")
    back = read_feature_csv(path)
    assert [r.utterance_id for r in back] == ["u001", "u002"]  # sorted on write
    assert back[1].features.f0_slope_all == -3.25
    assert back[0].context == "biting"
    assert path.read_text().startswith("# tool test\n")
