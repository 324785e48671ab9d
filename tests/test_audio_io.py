import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe.audio_io import (AudioClip, load_wav, pad_to_duration, wav_duration,
                              write_wav)
from usvpipe.exceptions import (ClipTooLongError, MalformedWavError, PipelineError,
                                UnsupportedFormatError)

from conftest import write_raw_wav


def test_int16_scaling_by_type_maximum(tmp_wav_factory):
    # constant 16384 in int16 -> 16384/32768 = 0.5 exactly
    payload = struct.pack("<200h", *([16384] * 200))
    clip = load_wav(tmp_wav_factory(bits=16, payload=payload))
    assert np.all(clip.samples == 0.5)
    assert clip.sample_rate == 50_000


def test_empty_data_chunk_rejected(tmp_wav_factory):
    with pytest.raises(MalformedWavError):
        load_wav(tmp_wav_factory(payload=b""))


def test_two_channels_rejected(tmp_wav_factory):
    with pytest.raises(UnsupportedFormatError):
        load_wav(tmp_wav_factory(channels=2))


def test_compressed_format_rejected(tmp_wav_factory):
    with pytest.raises(UnsupportedFormatError):
        load_wav(tmp_wav_factory(fmt_tag=0x0055))  # MP3-in-WAV tag


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "broken.wav"
    write_raw_wav(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 37])
    with pytest.raises(MalformedWavError):
        load_wav(path)


def test_not_riff_rejected(tmp_path):
    path = tmp_path / "nope.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(MalformedWavError):
        load_wav(path)


def test_float32_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    clip = AudioClip(samples=rng.uniform(-1, 1, 500), sample_rate=250_000,
                     source_id="f32")
    path = tmp_path / "f32.wav"
    write_wav(path, clip, encoding="float32")
    loaded = load_wav(path)
    assert loaded.sample_rate == 250_000
    np.testing.assert_array_equal(loaded.samples,
                                  clip.samples.astype(np.float32).astype(np.float64))


def test_int16_roundtrip_quantisation_bound(tmp_path):
    rng = np.random.default_rng(4)
    clip = AudioClip(samples=rng.uniform(-0.9, 0.9, 500), sample_rate=50_000)
    path = tmp_path / "i16.wav"
    write_wav(path, clip)
    loaded = load_wav(path)
    # half-step rounding plus the 32767-write / 32768-read scale asymmetry
    assert np.abs(loaded.samples - clip.samples).max() < 1.5 / 32768


def test_24bit_pcm_decodes(tmp_path):
    # two known samples: +2^22 -> 0.5, -2^22 -> -0.5
    def pack24(v):
        return struct.pack("<i", v)[:3]

    payload = pack24(2 ** 22) + pack24(-2 ** 22)
    path = tmp_path / "i24.wav"
    write_raw_wav(path, bits=24, payload=payload)
    clip = load_wav(path)
    np.testing.assert_allclose(clip.samples, [0.5, -0.5])


def test_scaling_linearity(tmp_wav_factory):
    values = [1000, -2000, 3000, 12000]
    single = struct.pack("<4h", *values)
    double = struct.pack("<4h", *[2 * v for v in values])
    c1 = load_wav(tmp_wav_factory(payload=single))
    c2 = load_wav(tmp_wav_factory(payload=double))
    np.testing.assert_array_equal(c2.samples, 2.0 * c1.samples)


def test_wav_duration_matches_full_load(tmp_wav_factory):
    payload = struct.pack("<300h", *([0] * 300))
    path = tmp_wav_factory(payload=payload, sample_rate=10_000)
    assert wav_duration(path) == load_wav(path).duration_s == 0.03


class TestPadToDuration:
    def test_one_second_clip_padded_to_three(self):
        clip = AudioClip(samples=np.ones(250_000), sample_rate=250_000)
        padded = pad_to_duration(clip, 3.0)
        assert padded.samples.size == 750_000
        assert np.all(padded.samples[:250_000] == 1.0)
        assert np.all(padded.samples[250_000:] == 0.0)

    def test_exact_length_clip_unchanged(self):
        clip = AudioClip(samples=np.ones(750_000), sample_rate=250_000)
        padded = pad_to_duration(clip, 3.0)
        assert padded.samples.size == 750_000
        np.testing.assert_array_equal(padded.samples, clip.samples)

    def test_over_length_clip_rejected(self):
        clip = AudioClip(samples=np.ones(800_000), sample_rate=250_000)
        with pytest.raises(ClipTooLongError):
            pad_to_duration(clip, 3.0)

    def test_prefix_preserved_bit_exactly_after_load(self, tmp_path):
        rng = np.random.default_rng(9)
        clip = AudioClip(samples=rng.uniform(-1, 1, 5000), sample_rate=50_000)
        path = tmp_path / "pad.wav"
        write_wav(path, clip, encoding="float32")
        loaded = load_wav(path)
        padded = pad_to_duration(loaded, 0.5)
        np.testing.assert_array_equal(padded.samples[:5000], loaded.samples)


def _riff(*chunks) -> bytes:
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


_FMT = struct.pack("<HHIIHH", 1, 1, 50_000, 100_000, 2, 16)
_DATA = b"\x00\x00" * 100

CONTAINER_DEFECTS = {
    "not_riff": b"OggS" + b"\x00" * 64,
    "shorter_than_riff_header": b"RIFF\x00\x00",
    "truncated_data_chunk": _riff((b"fmt ", _FMT), (b"data", _DATA))[:-37],
    "truncated_trailing_chunk": _riff((b"fmt ", _FMT), (b"data", _DATA))
    + b"LIST" + struct.pack("<I", 64) + b"abc",
    "missing_fmt": _riff((b"data", _DATA)),
    "short_fmt": _riff((b"fmt ", _FMT[:14]), (b"data", _DATA)),
    "missing_data": _riff((b"fmt ", _FMT)),
    "empty_data": _riff((b"fmt ", _FMT), (b"data", b"")),
}


@pytest.mark.parametrize("defect", sorted(CONTAINER_DEFECTS))
def test_container_defects_rejected_alike(tmp_path, defect):
    path = tmp_path / "bad.wav"
    path.write_bytes(CONTAINER_DEFECTS[defect])
    with pytest.raises(MalformedWavError) as by_load:
        load_wav(path)
    with pytest.raises(MalformedWavError) as by_duration:
        wav_duration(path)
    assert type(by_load.value) is type(by_duration.value)


FORMAT_DEFECTS = {
    "stereo": ({"channels": 2}, UnsupportedFormatError),
    "compressed": ({"fmt_tag": 0x0055}, UnsupportedFormatError),
    "compressed_partial_frame": ({"fmt_tag": 0x0055, "payload": b"\x00" * 201},
                                 UnsupportedFormatError),
    "partial_frame": ({"payload": b"\x00" * 201}, MalformedWavError),
    "block_align_under_sample_width": ({"bits": 16, "block_align": 1},
                                       MalformedWavError),
    "pcm_bit_depth": ({"bits": 12, "block_align": 2}, UnsupportedFormatError),
    "float_bit_depth": ({"fmt_tag": 3, "bits": 16}, UnsupportedFormatError),
}


@pytest.mark.parametrize("defect", sorted(FORMAT_DEFECTS))
def test_format_defects_rejected_alike(tmp_wav_factory, defect):
    # filter_cohort reads durations with wav_duration, extract loads with
    # load_wav: a file either passes both or costs the same error in both
    kwargs, error = FORMAT_DEFECTS[defect]
    path = tmp_wav_factory(**kwargs)
    with pytest.raises(error) as by_load:
        load_wav(path)
    with pytest.raises(error) as by_duration:
        wav_duration(path)
    assert type(by_load.value) is type(by_duration.value)


@pytest.mark.parametrize("fmt_tag,bits,block_align", [
    (1, 16, 1), (1, 24, 1), (3, 32, 1), (1, 16, 4)])
def test_block_align_must_fit_the_sample_width(tmp_wav_factory, fmt_tag, bits,
                                               block_align):
    # 12 bytes: a whole number of frames for every block_align above
    path = tmp_wav_factory(fmt_tag=fmt_tag, bits=bits, block_align=block_align,
                           payload=bytes(range(12)))
    with pytest.raises(MalformedWavError):
        load_wav(path)


def _fuzzed_wav():
    """Arbitrary bytes, or a RIFF container, whole or cut short, with fmt
    fields drawn near the valid ones and an arbitrary payload, so that both
    the chunk walker and the decoder are reached."""
    fields = st.tuples(
        st.sampled_from([1, 1, 3, 0xFFFE, 0x55]), st.sampled_from([1, 1, 1, 0, 2]),
        st.sampled_from([1, 50_000, 250_000, 0, 2 ** 32 - 1]),
        st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3, 4, 8, 0]),
        st.sampled_from([8, 16, 24, 32, 64, 0, 12]))
    fmt = st.tuples(fields.map(lambda f: struct.pack("<HHIIHH", *f)),
                    st.binary(max_size=28)).map(b"".join)
    container = st.builds(lambda f, data: _riff((b"fmt ", f), (b"data", data)),
                          fmt, st.binary(min_size=1, max_size=64))
    cut = st.tuples(container, st.integers(1, 200)).map(
        lambda pair: pair[0][:-pair[1]])
    return st.one_of(container, container, cut, st.binary(max_size=128))


@settings(max_examples=1000, deadline=None)
@given(data=_fuzzed_wav())
def test_fuzzed_bytes_raise_only_pipeline_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(data)
    for read in (load_wav, wav_duration):
        try:
            read(path)
        except PipelineError:
            pass


def _outcome(read, path):
    try:
        read(path)
    except PipelineError as exc:
        return type(exc)
    return None


@settings(max_examples=1000, deadline=None)
@given(data=_fuzzed_wav())
def test_readers_agree_on_fuzzed_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "agree.wav"
    path.write_bytes(data)
    assert _outcome(load_wav, path) is _outcome(wav_duration, path)
