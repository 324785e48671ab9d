import errno
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from usvpipe import audio_io, synth
from usvpipe.artifacts import write_json, write_table
from usvpipe.audio_io import write_wav
from usvpipe.cli import main
from usvpipe.corpus import FILTER_RULES, SchemaConfig, filter_cohort, load_annotations
from usvpipe.pitch import contour_stats, extract_f0
from usvpipe.seeding import rng_for
from usvpipe.synth import (DURATION_RANGE_S, NOISE_SMOOTHING_S,
                           SEPARABLE_CLASS_SPECS, SYNTH_SAMPLE_RATE, SynthSpec,
                           synth_corpus, synth_utterance)


def spec(**overrides):
    base = dict(context="feeding", f0_mean=11_000.0, f0_std=0.0, f0_slope=0.0,
                duration_s=1.0, amplitude=0.5, emitter_id="bat00", seed=1)
    base.update(overrides)
    return SynthSpec(**base)


def smoothing_pole(sample_rate):
    return np.exp(-1.0 / (NOISE_SMOOTHING_S * sample_rate))


def one_expression_samples(spec, sample_rate):
    """The clip as one expression per quantity, each making a new array: the
    reference the in-place build must match bit for bit."""
    n = int(round(spec.duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    freq = spec.f0_mean + spec.f0_slope * (t - spec.duration_s / 2.0)
    if spec.f0_std > 0.0:
        a = smoothing_pole(sample_rate)
        smoothed = synth._low_pass(rng_for(spec.seed).standard_normal(n), a)
        stationary_std = np.sqrt((1.0 - a) / (1.0 + a))
        freq = freq + np.clip(smoothed * (spec.f0_std / stationary_std),
                              -3.0 * spec.f0_std, 3.0 * spec.f0_std)
    phase = 2.0 * np.pi * np.cumsum(freq) / sample_rate
    return spec.amplitude * np.sin(phase)


def assert_low_pass_matches_lfilter(x, a):
    y = synth._low_pass(x, a)
    assert y.shape == x.shape
    assert np.all(np.isfinite(y))
    reference = lfilter([1.0 - a], [1.0, -a], x)
    bound = 1e-12 * max(reference.max(), -reference.min())
    reference -= y  # in place: the two-minute clip's arrays are 48 MB each
    assert max(reference.max(), -reference.min()) <= bound


class TestLowPass:
    """synth._low_pass against scipy.signal.lfilter, the filter it replaces."""

    L = synth._SCAN_BLOCK

    @pytest.mark.parametrize("rate", [50_000, 250_000])
    @pytest.mark.parametrize("n", [1, L - 1, L, L + 1, 2 * L + 1])
    def test_block_edges(self, rate, n):
        x = rng_for(n).standard_normal(n)
        assert_low_pass_matches_lfilter(x, smoothing_pole(rate))

    def test_three_second_clip_at_250_khz(self):
        assert_low_pass_matches_lfilter(rng_for(3).standard_normal(750_000),
                                        smoothing_pole(250_000))

    def test_two_minute_clip_stays_finite(self):
        """At 50 kHz one scale a**-n over the whole clip would overflow
        after about 35 s; the blocks bound it whatever the length."""
        assert_low_pass_matches_lfilter(rng_for(120).standard_normal(120 * 50_000),
                                        smoothing_pole(50_000))

    def test_pole_that_decays_within_a_block(self):
        """At 20 Hz, a**-(L - 1) would overflow: the block shortens."""
        assert (self.L - 1) * -np.log(smoothing_pole(20)) > np.log(np.finfo(float).max)
        assert_low_pass_matches_lfilter(rng_for(20).standard_normal(3 * self.L + 5),
                                        smoothing_pole(20))


class TestSynthUtterance:
    @settings(max_examples=60, deadline=None)
    @given(rate=st.sampled_from([50_000, 250_000]),
           mean_fraction=st.floats(0.1, 0.35),
           f0_std=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
           slope=st.floats(-4000.0, 4000.0),
           duration=st.floats(0.002, 0.08),
           amplitude=st.floats(0.01, 1.0),
           seed=st.integers(0, 2 ** 62))
    @example(rate=50_000, mean_fraction=0.2, f0_std=0.0, slope=-3000.0,
             duration=0.05, amplitude=0.7, seed=1)
    @example(rate=250_000, mean_fraction=0.3, f0_std=120.0, slope=2500.0,
             duration=0.05, amplitude=0.4, seed=2)
    def test_samples_equal_the_one_expression_formula(self, rate, mean_fraction, f0_std,
                                                      slope, duration, amplitude, seed):
        s = spec(f0_mean=mean_fraction * rate, f0_std=f0_std, f0_slope=slope,
                 duration_s=duration, amplitude=amplitude, seed=seed)
        samples = synth_utterance(s, rate).samples
        assert samples.tobytes() == one_expression_samples(s, rate).tobytes()

    def test_pure_tone_recovered_within_a_bin(self):
        clip = synth_utterance(spec(), 50_000)
        fv = contour_stats(extract_f0(clip))
        assert abs(fv.f0_mean_voiced - 11_000.0) <= 10.0
        assert fv.f0_std_voiced == 0.0

    def test_chirp_slope_recovered_within_5_percent(self):
        clip = synth_utterance(spec(f0_mean=10_000.0, f0_slope=4000.0), 50_000)
        fv = contour_stats(extract_f0(clip))
        assert abs(fv.f0_slope_voiced - 4000.0) <= 200.0

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError, match=re.escape("amplitude 0.0 outside (0, 1]")):
            synth_utterance(spec(amplitude=0.0), 50_000)

    def test_frequency_range_validated_against_nyquist(self):
        with pytest.raises(ValueError, match=re.escape(
                "frequency range [22500.0, 25500.0] Hz outside (0, 25000.0)")):
            synth_utterance(spec(f0_mean=24_000.0, f0_std=500.0), 50_000)
        with pytest.raises(ValueError, match=re.escape(
                "frequency range [-500.0, 700.0] Hz outside (0, 25000.0)")):
            synth_utterance(spec(f0_mean=100.0, f0_std=200.0), 50_000)

    def test_deterministic_per_seed(self):
        c1 = synth_utterance(spec(f0_std=80.0, seed=9), 50_000)
        c2 = synth_utterance(spec(f0_std=80.0, seed=9), 50_000)
        np.testing.assert_array_equal(c1.samples, c2.samples)
        c3 = synth_utterance(spec(f0_std=80.0, seed=10), 50_000)
        assert not np.array_equal(c1.samples, c3.samples)

    def test_noisy_spec_stays_near_mean(self):
        clip = synth_utterance(spec(f0_std=100.0, seed=4), 50_000)
        fv = contour_stats(extract_f0(clip))
        assert abs(fv.f0_mean_voiced - 11_000.0) <= 300.0

    def test_generator_extractor_closure_over_bin_centres(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f0 = float(rng.integers(600, 1700) * 10)
            clip = synth_utterance(spec(f0_mean=f0, seed=int(rng.integers(1 << 30))),
                                   50_000)
            fv = contour_stats(extract_f0(clip))
            assert abs(fv.f0_mean_voiced - f0) <= 10.0


class TestSynthCorpus:
    def test_cohort_size_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "SEPARABLE_CLASS_SPECS", {
            k: SEPARABLE_CLASS_SPECS[k] for k in ("feeding", "fighting")})
        a1, s1 = synth_corpus(tmp_path / "c1", n_emitters=4, per_class_count=2, seed=3)
        schema = SchemaConfig.from_json(s1)
        cohort, report = filter_cohort(load_annotations(a1, schema),
                                       schema.emitter_placeholders,
                                       audio_root=tmp_path / "c1")
        assert len(cohort) == 4
        assert sum(report[rule] for rule in FILTER_RULES) == 0
        # same seed reproduces the wav bytes
        a2, _ = synth_corpus(tmp_path / "c2", n_emitters=4, per_class_count=2, seed=3)
        w1 = sorted((tmp_path / "c1" / "wavs").iterdir())
        w2 = sorted((tmp_path / "c2" / "wavs").iterdir())
        for p1, p2 in zip(w1, w2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_round_robin_emitters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "SEPARABLE_CLASS_SPECS",
                            {"feeding": SEPARABLE_CLASS_SPECS["feeding"]})
        a, s = synth_corpus(tmp_path / "c", n_emitters=3, per_class_count=3, seed=0)
        schema = SchemaConfig.from_json(s)
        records = load_annotations(a, schema)
        assert [r.emitter_id for r in records] == ["bat00", "bat01", "bat02"]

    def test_too_few_emitters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            synth_corpus(tmp_path / "c", n_emitters=2, per_class_count=3, seed=0)

    def test_corpus_is_the_same_for_any_thread_count(self, tmp_path, monkeypatch):
        """Jittered classes, so the worker threads run synth_utterance's
        low-pass scan; the reference writes the documented draw serially,
        in id order."""
        specs = {"feeding": {"f0_mean": 9000.0, "f0_std": 300.0, "f0_slope": 0.0},
                 "fighting": {"f0_mean": 12000.0, "f0_std": 150.0,
                              "f0_slope": 2000.0}}
        rng, rows = rng_for(5), []
        reference = tmp_path / "reference"
        for i, label in enumerate(label for label in sorted(specs)
                                  for _ in range(4)):
            uid, emitter = f"u{i:06d}", f"bat{i % 3:02d}"
            clip = synth_utterance(SynthSpec(
                label, **specs[label], duration_s=float(rng.uniform(*DURATION_RANGE_S)),
                amplitude=float(rng.uniform(0.3, 0.9)), emitter_id=emitter,
                seed=int(rng.integers(2 ** 62))), SYNTH_SAMPLE_RATE)
            write_wav(reference / "wavs" / f"{uid}.wav", clip)
            rows.append((uid, emitter, label, f"wavs/{uid}.wav"))
        write_table(reference / "annotations.csv",
                    ("utterance_id", "emitter_id", "context_code", "file"), rows)
        write_json(reference / "schema.json", {
            "delimiter": ",",
            "columns": {"id": "utterance_id", "emitter": "emitter_id",
                        "context": "context_code", "file": "file"},
            "context_map": {label: label for label in sorted(specs)},
            "emitter_placeholders": ["unknown-emitter"]})

        corpora = [reference]
        monkeypatch.setattr(synth, "SEPARABLE_CLASS_SPECS", specs)
        for workers in (1, 2):
            monkeypatch.setattr(audio_io, "_worker_count",
                                lambda items, w=workers: max(1, min(w, items)))
            corpora.append(tmp_path / f"w{workers}")
            synth_corpus(corpora[-1], n_emitters=3, per_class_count=4, seed=5)
        files = [{p.relative_to(root): p.read_bytes()
                  for p in sorted(root.rglob("*")) if p.is_file()}
                 for root in corpora]
        assert len(files[0]) == 8 + 2
        assert files[0] == files[1] == files[2]

    def test_failed_clip_write_stops_synth(self, tmp_path, monkeypatch, caplog):
        def full_disk_at_u000002(path, clip):
            if path.stem == "u000002":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write_wav(path, clip)

        monkeypatch.setattr(synth, "write_wav", full_disk_at_u000002)
        with pytest.raises(OSError) as raised:
            synth_corpus(tmp_path / "c", n_emitters=3, per_class_count=1, seed=0)
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.filename == str(tmp_path / "c" / "wavs" / "u000002.wav")
        assert not (tmp_path / "c" / "annotations.csv").exists()

        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--seed", "0", "--emitters", "3",
                     "--per-class", "1"]) == 2
        assert "No space left on device" in caplog.text
        assert not (out / "annotations.csv").exists()
        assert not (out / "config.json").exists()
