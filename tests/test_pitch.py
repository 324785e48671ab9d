import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe import pitch
from usvpipe.artifacts import write_table
from usvpipe.audio_io import AudioClip
from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.pitch import (FEATURE_CSV_COLUMNS, GATE_DB, EmptyVoicedSetError,
                           FeatureRecord, FeatureVector, PitchContour, contour_stats,
                           extract_f0, read_feature_csv, write_feature_csv)
from usvpipe.spectral import _STFT_BLOCK_BYTES, ClipTooShortError

from conftest import sine_clip


class TestExtractF0:
    def test_pure_tone_every_frame_voiced_at_tone_bin(self):
        clip = sine_clip(11_000, duration_s=1.0, sample_rate=50_000)
        contour = extract_f0(clip)
        assert len(contour.f0_hz) == 57
        assert (contour.f0_hz > 0).all()
        np.testing.assert_array_equal(contour.f0_hz, 11_000.0)

    def test_minus_30db_interferer_never_selected(self):
        t = np.arange(50_000) / 50_000
        main = 0.5 * np.sin(2 * np.pi * 11_000 * t)
        weak = 0.5 * 10 ** (-30 / 20) * np.sin(2 * np.pi * 5000 * t)
        contour = extract_f0(AudioClip(samples=main + weak, sample_rate=50_000))
        assert (contour.f0_hz > 0).all()
        assert np.all(np.abs(contour.f0_hz - 11_000.0) <= 5.0)

    def test_all_zero_clip_every_frame_unvoiced(self):
        contour = extract_f0(AudioClip(samples=np.zeros(50_000), sample_rate=50_000))
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
            np.testing.assert_array_equal(scaled.f0_hz > 0, base.f0_hz > 0)
            np.testing.assert_array_equal(scaled.f0_hz, base.f0_hz)

    def test_unvoiced_iff_zero_f0(self):
        # quiet tail: tone then near-silence; gated tail frames must be
        # unvoiced, which a contour records as f0 = 0 exactly (never negative)
        t = np.arange(25_000) / 50_000
        loud = 0.8 * np.sin(2 * np.pi * 8000 * t)
        quiet = 1e-4 * np.sin(2 * np.pi * 8000 * t)
        contour = extract_f0(AudioClip(samples=np.concatenate([loud, quiet]),
                                       sample_rate=50_000))
        voiced = contour.f0_hz > 0
        assert voiced.any() and not voiced.all()
        np.testing.assert_array_equal(contour.f0_hz[~voiced], 0.0)


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


def _noisy_tone(samples=40_000):
    rng = np.random.default_rng(12)
    t = np.arange(samples) / 50_000
    return 0.4 * np.sin(2 * np.pi * 9000 * t) + 0.05 * rng.standard_normal(t.size)


def _fading_tone():
    t = np.arange(30_000) / 50_000
    return np.sin(2 * np.pi * 12_000 * t) * np.exp(-8.0 * t)  # tail falls below the gate


def _nan_clip():
    samples = _noisy_tone().astype(np.float32).astype(np.float64)
    samples[20_000] = np.nan
    return samples


# At 50 kHz the pitch STFT has a 5000-sample window and an 800-sample hop,
# and stft_samples transforms _PITCH_BLOCK frames at a time.
_PITCH_BLOCK = _STFT_BLOCK_BYTES // (8 * 5000)


def _frames_50k(frames):
    """A fading noisy tone of the given pitch frame count at 50 kHz."""
    samples = _noisy_tone(5000 + (frames - 1) * 800 + 13)
    return lambda: AudioClip(samples * np.exp(np.linspace(0.0, -4.0, samples.size)),
                             50_000)


ORACLE_CLIPS = {
    "sweep_250k": lambda: AudioClip(_sweep(20_000, 60_000, 0.4, 250_000), 250_000),
    "noisy_50k": lambda: AudioClip(_noisy_tone(), 50_000),
    "silence": lambda: AudioClip(np.zeros(20_000), 50_000),
    "one_frame": lambda: AudioClip(_noisy_tone()[:5000], 50_000),
    "fading_below_gate": lambda: AudioClip(_fading_tone(), 50_000),
    "float_with_nan": lambda: AudioClip(_nan_clip(), 50_000),
    "block-1_frames": _frames_50k(_PITCH_BLOCK - 1),
    "block_frames": _frames_50k(_PITCH_BLOCK),
    "block+1_frames": _frames_50k(_PITCH_BLOCK + 1),
    "2block+1_frames": _frames_50k(2 * _PITCH_BLOCK + 1),
}


def one_shot_pitch_stft(clip):
    """The whole pitch magnitude matrix in one rfft call, independent of
    usvpipe.spectral: periodic Hann, 100 ms window, 16 ms hop, frames
    wholly inside the clip.  Returns (magnitudes, bin width, frame hop s)."""
    window = int(round(0.100 * clip.sample_rate))
    hop = int(round(0.016 * clip.sample_rate))
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, window)[::hop]
    return (np.abs(np.fft.rfft(frames * hann, axis=1)), clip.sample_rate / window,
            hop / clip.sample_rate)


@pytest.mark.parametrize("name", sorted(ORACLE_CLIPS))
def test_extract_f0_matches_gated_argmax_oracle(name):
    clip = ORACLE_CLIPS[name]()
    contour = extract_f0(clip)
    mags, bin_hz, hop_s = one_shot_pitch_stft(clip)
    f0, voiced = gated_argmax_oracle(mags, bin_hz)
    assert np.array_equal(contour.f0_hz, f0)
    assert np.array_equal(contour.f0_hz > 0, voiced)
    assert contour.hop_s == hop_s
    if name == "fading_below_gate":
        assert voiced[0] and not voiced[-1]
    if name == "one_frame":
        assert len(contour.f0_hz) == 1
    if name.endswith("_frames"):
        blocks = {"block-1": _PITCH_BLOCK - 1, "block": _PITCH_BLOCK,
                  "block+1": _PITCH_BLOCK + 1, "2block+1": 2 * _PITCH_BLOCK + 1}
        assert len(contour.f0_hz) == blocks[name[:-len("_frames")]]
        assert voiced.any() and not voiced.all()


def test_extract_f0_matches_oracle_on_exact_argmax_ties(monkeypatch):
    # rows: tie above the gate (first wins), tie with the DC bin, tie below
    # the gate, all-zero row
    mags = np.array([[0.0, 3.0, 1.0, 3.0, 2.0],
                     [3.0, 1.0, 3.0, 0.5, 0.0],
                     [0.0, 0.1, 0.05, 0.1, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0]])

    def crafted_blocks(clip, window_samples, hop_samples, consume, span=None):
        assert (window_samples, hop_samples, span) == (8, 1, None)  # 5 bins
        consume(0, mags[:3].copy())  # extract_f0 may square a block in place
        consume(3, mags[3:].copy())
        return len(mags)

    monkeypatch.setattr(pitch, "stft_samples", crafted_blocks)
    # at 80 Hz the 100 ms window is 8 samples (5 bins of 10 Hz), the hop 1
    contour = extract_f0(AudioClip(np.zeros(11), 80))
    f0, voiced = gated_argmax_oracle(mags, 10.0)
    assert np.array_equal(contour.f0_hz, f0)
    assert np.array_equal(contour.f0_hz > 0, voiced)
    assert contour.f0_hz.tolist() == [10.0, 0.0, 0.0, 0.0]


def test_extract_f0_never_holds_the_whole_spectrogram():
    # 3 s at 250 kHz: the whole 182 x 12501 magnitude matrix is 18 MB
    clip = AudioClip(_sweep(20_000, 60_000, 3.0, 250_000), 250_000)
    tracemalloc.start()
    try:
        extract_f0(clip)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_second_extract_f0_call_allocates_under_1mb():
    # the first call in this thread leaves its STFT buffer pair in the idle
    # list; the second reuses it and allocates only its small per-clip arrays
    clip = AudioClip(_sweep(20_000, 60_000, 3.0, 250_000), 250_000)
    first = extract_f0(clip)
    tracemalloc.start()
    try:
        second = extract_f0(clip)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(second.f0_hz, first.f0_hz)
    assert peak - second.f0_hz.nbytes < 1 << 20


def _reference_slope(times, values):
    t = times - times.mean()
    denom = float(np.dot(t, t))
    if denom == 0.0:
        return 0.0
    return float(np.dot(t, values - values.mean()) / denom)


def reference_contour_stats(f0, hop_s):
    """The ten statistics through ndarray.mean, .std, .max and .min."""
    mask = f0 > 0.0
    t = np.arange(len(f0)) * hop_s
    fv, tv = f0[mask], t[mask]
    return [float(f0.mean()), float(f0.std()), float(f0.max()), float(f0.min()),
            _reference_slope(t, f0), float(fv.mean()), float(fv.std()),
            float(fv.max()), float(fv.min()), _reference_slope(tv, fv)]


@settings(max_examples=300, deadline=None)
@given(f0=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 125_000.0)),
                   min_size=1, max_size=400).filter(lambda f0: max(f0) > 0.0),
       hop_s=st.sampled_from([0.016, 0.0123, 1e-4, 3.0]))
def test_contour_stats_equal_the_ndarray_method_formulas(f0, hop_s):
    f0 = np.array(f0)
    row = contour_stats(PitchContour(f0_hz=f0, hop_s=hop_s)).as_row()
    # compared as bits, so a -0.0 slope differs from 0.0
    assert (np.array(row).view(np.uint64).tolist()
            == np.array(reference_contour_stats(f0, hop_s)).view(np.uint64).tolist())


class TestContourStats:
    def test_constant_contour(self):
        contour = PitchContour(f0_hz=np.full(57, 11_000.0), hop_s=0.016)
        fv = contour_stats(contour)
        assert fv.f0_mean_all == fv.f0_mean_voiced == 11_000.0
        assert fv.f0_std_all == fv.f0_std_voiced == 0.0
        assert fv.f0_slope_all == fv.f0_slope_voiced == 0.0

    def test_linear_chirp_slope_recovered(self):
        times = np.arange(63) * 0.016
        f0 = 8000.0 + 4000.0 * times
        fv = contour_stats(PitchContour(f0_hz=f0, hop_s=0.016))
        assert abs(fv.f0_slope_voiced - 4000.0) <= 40.0  # within 1 %
        assert abs(fv.f0_mean_voiced - f0.mean()) < 1e-9

    def test_half_voiced_arithmetic(self):
        f0 = np.array([10_000.0] * 5 + [0.0] * 5)
        fv = contour_stats(PitchContour(f0_hz=f0, hop_s=0.016))
        assert fv.f0_mean_all == 5000.0
        assert fv.f0_mean_voiced == 10_000.0
        assert fv.f0_max_all == fv.f0_max_voiced == 10_000.0
        assert fv.f0_min_all == 0.0
        assert fv.f0_min_voiced == 10_000.0

    def test_no_voiced_frames_is_an_error(self):
        for frames in (5, 0):  # an empty track has no voiced frame either
            with pytest.raises(EmptyVoicedSetError):
                contour_stats(PitchContour(f0_hz=np.zeros(frames), hop_s=0.016))

    def test_single_voiced_frame_flags_degenerate_slope(self):
        f0 = np.array([0.0, 9000.0, 0.0])
        fv = contour_stats(PitchContour(f0_hz=f0, hop_s=0.016))
        assert fv.f0_slope_voiced == 0.0

    def test_slope_sign_flips_under_time_reversal(self):
        f0 = 9000.0 + 150.0 * np.arange(20)
        fwd = contour_stats(PitchContour(f0_hz=f0, hop_s=0.016))
        rev = contour_stats(PitchContour(f0_hz=f0[::-1].copy(), hop_s=0.016))
        assert fwd.f0_slope_all == pytest.approx(-rev.f0_slope_all)

    def test_voiced_stats_invariant_to_inserting_unvoiced_frames(self):
        f0 = np.linspace(8000, 9000, 10)
        base = contour_stats(PitchContour(f0_hz=f0, hop_s=0.016))
        # unvoiced frames around the voiced run shift its times by whole hops
        f0_aug = np.concatenate([np.zeros(3), f0, np.zeros(2)])
        aug = contour_stats(PitchContour(f0_hz=f0_aug, hop_s=0.016))
        for name in ("f0_mean_voiced", "f0_std_voiced", "f0_max_voiced",
                     "f0_min_voiced", "f0_slope_voiced"):
            assert getattr(aug, name) == pytest.approx(getattr(base, name))

    def test_voiced_slope_uses_the_times_of_the_voiced_frames(self):
        # frames 5-7 unvoiced: the voiced slope is the least-squares slope
        # over the voiced frames at their own times t * hop_s
        f0 = np.linspace(8000, 9000, 13)
        f0[5:8] = 0.0
        fv = contour_stats(PitchContour(f0_hz=f0, hop_s=0.016))
        times = np.arange(13) * 0.016
        voiced = f0 > 0
        slope = np.polyfit(times[voiced], f0[voiced], 1)[0]
        assert fv.f0_slope_voiced == pytest.approx(slope)
        assert fv.f0_slope_voiced == pytest.approx(1000 / (12 * 0.016))


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
    with pytest.raises(ValueError, match=f"^{path}:1: expected header utterance_id,"):
        read_feature_csv(path)


def test_feature_csv_rejects_repeated_id(tmp_path):
    fv = FeatureVector(*range(10))
    path = tmp_path / "features.csv"
    write_feature_csv(path, [FeatureRecord("u001", "batA", "feeding", 0.5, fv),
                             FeatureRecord("u002", "batB", "biting", 0.5, fv)],
                      comment="stamp")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[2:3]))  # u001 again, on line 5
    with pytest.raises(ValueError, match=f"^{path}:5: utterance_id 'u001' is already "
                                         "used on line 3$"):
        read_feature_csv(path)


# case: (column, text written there in the row on line 3, the refusal's reason)
BAD_FEATURE_CELLS = {
    "blank_id": (0, "", "is blank"),
    "path_id": (0, "../x", "is not a plain file name"),
    "unknown_context": (2, "chirping", f"is not one of {', '.join(CONTEXT_LABELS)}"),
    "infinite_duration": (3, "inf", "is not a finite number"),
    "zero_duration": (3, "0", "is not above 0"),
    "negative_duration": (3, "-0.5", "is not above 0"),
    "nan_feature": (4, "nan", "is not a finite number"),
    "non_numeric_feature": (13, "high", "is not a finite number"),
}


@pytest.mark.parametrize("case", sorted(BAD_FEATURE_CELLS))
def test_feature_csv_refuses_a_bad_cell_naming_path_line_and_column(tmp_path, case):
    column, text, reason = BAD_FEATURE_CELLS[case]
    row = ["u002", "batB", "biting", "0.5", *"0123456789"]
    row[column] = text
    path = tmp_path / "features.csv"
    write_table(path, tuple(FEATURE_CSV_COLUMNS),
                [["u001", "batA", "feeding", "0.5", *"0123456789"], row])
    with pytest.raises(ValueError) as refusal:
        read_feature_csv(path)
    name = list(FEATURE_CSV_COLUMNS)[column]
    assert str(refusal.value) == f"{path}:3: {name} {text!r} {reason}"


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
