import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe import audio_io
from usvpipe.audio_io import (AudioClip, ClipTooLongError, MalformedWavError,
                              UnsupportedFormatError, load_wav, padded_length,
                              write_wav)
from usvpipe.pitch import extract_f0
from usvpipe.spectral import export_spectrogram

from conftest import one_shot_stft, write_raw_wav


def test_int16_scaling_by_type_maximum(tmp_wav_factory):
    # constant 16384 in int16 -> 16384/32768 = 0.5 exactly
    payload = struct.pack("<200h", *([16384] * 200))
    clip = load_wav(tmp_wav_factory(bits=16, payload=payload))
    assert clip.scale == 2.0 ** -15
    assert np.all(clip.samples * clip.scale == 0.5)
    assert clip.sample_rate == 50_000


def test_16bit_pcm_loads_as_its_data_chunk_in_int16(tmp_wav_factory):
    """No float64 copy: the samples are the data chunk's own 2-byte numbers."""
    payload = np.arange(-500, 500, dtype="<i2").tobytes()
    clip = load_wav(tmp_wav_factory(bits=16, payload=payload))
    assert clip.samples.dtype == np.dtype("<i2")
    assert clip.samples.nbytes == len(payload)
    assert clip.samples.tobytes() == payload


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
    samples = rng.uniform(-1, 1, 500)
    path = tmp_path / "f32.wav"
    write_raw_wav(path, sample_rate=250_000, fmt_tag=3, bits=32,
                  payload=samples.astype("<f4").tobytes())
    loaded = load_wav(path)
    assert loaded.sample_rate == 250_000
    assert loaded.samples.dtype == np.dtype("<f4") and loaded.scale == 1.0
    np.testing.assert_array_equal(loaded.samples, samples.astype(np.float32))


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_sample_that_is_not_finite_is_malformed(tmp_path, bits, bad):
    samples = np.linspace(-0.5, 0.5, 400)
    samples[123] = bad
    path = tmp_path / "f.wav"
    write_raw_wav(path, fmt_tag=3, bits=bits,
                  payload=samples.astype(f"<f{bits // 8}").tobytes())
    with pytest.raises(MalformedWavError, match=re.escape(
            f"{path}: NaN or infinite float sample")):
        load_wav(path)


_KSDATAFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


@pytest.mark.parametrize("fmt_tag,bits,dtype", [(1, 16, "<i2"), (3, 32, "<f4")])
def test_extensible_fmt_reads_as_its_subformat(tmp_path, fmt_tag, bits, dtype):
    """WAVE_FORMAT_EXTENSIBLE names the encoding in the first two bytes of
    its SubFormat GUID; the file reads as the plain-tag file would."""
    payload = np.arange(-200, 200, dtype=dtype).tobytes()
    plain = tmp_path / "plain.wav"
    write_raw_wav(plain, fmt_tag=fmt_tag, bits=bits, payload=payload)
    # cbSize 22, valid bits, channel mask, then the SubFormat GUID
    fmt = (struct.pack("<HHIIHHHHIH", 0xFFFE, 1, 50_000, 50_000 * bits // 8,
                       bits // 8, bits, 22, bits, 0x4, fmt_tag)
           + _KSDATAFORMAT_GUID_TAIL)
    extensible = tmp_path / "extensible.wav"
    extensible.write_bytes(_riff((b"fmt ", fmt), (b"data", payload)))
    clip = load_wav(extensible)
    np.testing.assert_array_equal(clip.samples, load_wav(plain).samples)
    assert clip.sample_rate == 50_000


def test_int16_roundtrip_quantisation_bound(tmp_path):
    rng = np.random.default_rng(4)
    clip = AudioClip(samples=rng.uniform(-0.9, 0.9, 500), sample_rate=50_000)
    path = tmp_path / "i16.wav"
    write_wav(path, clip)
    loaded = load_wav(path)
    # half-step rounding plus the 32767-write / 32768-read scale asymmetry
    assert np.abs(loaded.samples * loaded.scale - clip.samples).max() < 1.5 / 32768


def test_int16_payload_is_the_rounded_clipped_product(tmp_path):
    rng = np.random.default_rng(8)
    k = rng.integers(-32768, 32767, 400).astype(np.float64)
    halves = (k + 0.5) / 32767.0
    halves = halves[halves * 32767.0 == k + 0.5]  # exact half-LSB ties only
    assert halves.size > 100
    samples = np.concatenate([rng.uniform(-1.0, 1.0, 500), [1.0, -1.0],
                              rng.uniform(1.0, 3.0, 50) * rng.choice([-1.0, 1.0], 50),
                              halves])
    path = tmp_path / "q.wav"
    write_wav(path, AudioClip(samples=samples, sample_rate=50_000))
    expected = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    assert path.read_bytes()[44:] == expected.tobytes()


def test_24bit_pcm_decodes(tmp_path):
    # two known samples: +2^22 -> 0.5, -2^22 -> -0.5
    def pack24(v):
        return struct.pack("<i", v)[:3]

    payload = pack24(2 ** 22) + pack24(-2 ** 22)
    path = tmp_path / "i24.wav"
    write_raw_wav(path, bits=24, payload=payload)
    clip = load_wav(path)
    assert clip.samples.dtype == np.dtype("<i4")
    np.testing.assert_array_equal(clip.samples * clip.scale, [0.5, -0.5])


def _decode_by_divide(body, bits):
    """The integer PCM decode as a float64 copy divided into a second array."""
    if bits == 8:
        return (np.frombuffer(body, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    if bits == 24:
        raw = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        x = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        return ((x << 8) >> 8).astype(np.float64) / float(2 ** 23)
    return (np.frombuffer(body, dtype=f"<i{bits // 8}").astype(np.float64)
            / float(2 ** (bits - 1)))


@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_pcm_decode_equals_the_divide_formula_bit_for_bit(bits):
    # 8-bit PCM is unsigned around 128, the wider widths signed around 0
    zero = 128 if bits == 8 else 0
    low, high = zero - 2 ** (bits - 1), zero + 2 ** (bits - 1) - 1
    rng = np.random.default_rng(bits)
    codes = np.concatenate([[low, low + 1, zero - 1, zero, zero + 1, high - 1, high],
                            rng.integers(low, high, 1000, endpoint=True)])
    width = (bits + 7) // 8
    body = b"".join(int(c).to_bytes(width, "little", signed=bits > 8) for c in codes)
    samples, scale = audio_io._decode(body, 1, bits)
    assert samples.dtype == np.dtype("<i2" if bits <= 16 else "<i4")
    decoded = samples * scale
    assert decoded.tobytes() == _decode_by_divide(body, bits).tobytes()
    assert decoded.min() >= -1.0 and decoded.max() < 1.0


def test_scaling_linearity(tmp_wav_factory):
    values = [1000, -2000, 3000, 12000]
    single = struct.pack("<4h", *values)
    double = struct.pack("<4h", *[2 * v for v in values])
    c1 = load_wav(tmp_wav_factory(payload=single))
    c2 = load_wav(tmp_wav_factory(payload=double))
    np.testing.assert_array_equal(c2.samples * c2.scale, 2.0 * c1.samples * c1.scale)


def _payload(amplitudes, fmt_tag, bits) -> bytes:
    """The amplitudes as a data chunk of the given encoding."""
    if fmt_tag == 3:
        return amplitudes.astype(f"<f{bits // 8}").tobytes()
    codes = np.round(amplitudes * (2 ** (bits - 1) - 1)).astype(np.int64)
    if bits == 8:
        return (codes + 128).astype(np.uint8).tobytes()
    return b"".join(int(c).to_bytes(bits // 8, "little", signed=True) for c in codes)


@pytest.mark.parametrize("fmt_tag,bits", [(1, 8), (1, 16), (1, 24), (1, 32),
                                          (3, 32), (3, 64)])
def test_clip_in_its_own_type_analyses_as_its_float64_amplitudes(tmp_path, fmt_tag,
                                                                   bits):
    """A loaded clip keeps its file's numbers and a power-of-two scale; its
    pitch contour and export tensor equal, bit for bit, those of the float64
    clip of samples x scale.  At 0.25 s the export frames run into the zero
    padding at the tail of the 3 s span."""
    rng = np.random.default_rng(bits)
    t = np.arange(12_345) / 50_000
    amplitudes = (0.6 * np.sin(2 * np.pi * (8000 * t + 24_000 * t * t))
                  + rng.uniform(-0.05, 0.05, t.size))
    path = tmp_path / "clip.wav"
    write_raw_wav(path, fmt_tag=fmt_tag, bits=bits,
                  payload=_payload(amplitudes, fmt_tag, bits))
    clip = load_wav(path)
    pcm_type = "<i2" if bits <= 16 else "<i4"
    assert clip.samples.dtype == np.dtype(pcm_type if fmt_tag == 1 else f"<f{bits // 8}")
    reference = AudioClip(samples=clip.samples.astype(np.float64) * clip.scale,
                          sample_rate=clip.sample_rate)
    contour, expected = extract_f0(clip), extract_f0(reference)
    assert (contour.f0_hz > 0).sum() > contour.f0_hz.size // 2
    assert contour.f0_hz.tobytes() == expected.f0_hz.tobytes()
    mags = export_spectrogram(clip).magnitudes
    assert mags[(12_345 - 4096) // 500 + 1].any()  # a frame past the clip's end
    assert mags.tobytes() == export_spectrogram(reference).magnitudes.tobytes()


def test_scale_must_be_a_positive_power_of_two():
    for scale in (0.0, -0.5, 3.0, 2.0 ** -15 * 1.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="scale must be a positive power of two"):
            AudioClip(samples=np.ones(10, dtype=np.int16), sample_rate=8000, scale=scale)


@pytest.mark.parametrize("samples, rate, message", [
    (np.ones((2, 5)), 8000, "AudioClip samples must be one-dimensional"),
    (np.ones(0), 8000, "AudioClip samples must be non-empty"),
    (np.ones(10), 0, "sample_rate must be positive, got 0"),
    (np.ones(10), -8000, "sample_rate must be positive, got -8000"),
], ids=["two_dimensional", "empty", "zero_rate", "negative_rate"])
def test_clip_needs_one_line_of_samples_and_a_positive_rate(samples, rate, message):
    with pytest.raises(ValueError) as refusal:
        AudioClip(samples=samples, sample_rate=rate)
    assert str(refusal.value) == message


@pytest.mark.parametrize("rate", [1_000, 11_025, 44_100, 250_000])
def test_file_over_3_s_refused_before_its_samples_are_read(tmp_path, monkeypatch, rate):
    """load_wav and padded_length share one limit, round(3 s x rate) frames:
    a file one frame over it is refused from its header, without a call to
    _decode, and a file exactly at it loads."""
    limit = round(3 * rate)
    decoded = []
    decode = audio_io._decode
    monkeypatch.setattr(audio_io, "_decode", lambda body, *fields: (
        decoded.append(len(body)) or decode(body, *fields)))
    over, at = tmp_path / "over.wav", tmp_path / "at.wav"
    write_raw_wav(over, sample_rate=rate, payload=bytes(2 * (limit + 1)))
    write_raw_wav(at, sample_rate=rate, payload=bytes(2 * limit))
    with pytest.raises(ClipTooLongError) as refusal:
        load_wav(over)
    assert str(refusal.value) == (f"{limit + 1} samples exceed the 3.0 s target "
                                  f"of {limit}")
    assert decoded == []
    clip = load_wav(at)
    assert decoded == [2 * limit]
    assert clip.samples.size == padded_length(clip) == limit


class TestPadToDuration:
    """Export pads a clip at the tail to padded_length(clip) samples (3 s),
    reading the padding as zeros instead of copying the clip."""

    # one 4096-sample frame of ones under the Hann window
    ONES = one_shot_stft(np.ones(4096), 4096, 4096)[0].astype(np.float32)

    def test_one_second_clip_padded_to_three(self):
        clip = AudioClip(samples=np.ones(250_000), sample_rate=250_000)
        assert padded_length(clip) == 750_000
        mags = export_spectrogram(clip).magnitudes
        assert mags.shape == (299, 2049)  # 750 000 samples at a 2500-sample hop
        assert np.all(mags[:(250_000 - 4096) // 2500 + 1] == self.ONES)  # in the clip
        assert np.all(mags[250_000 // 2500:] == 0.0)  # starting in the padding

    def test_exact_length_clip_unchanged(self):
        clip = AudioClip(samples=np.ones(750_000), sample_rate=250_000)
        assert padded_length(clip) == 750_000
        mags = export_spectrogram(clip).magnitudes
        assert mags.shape == (299, 2049)
        assert np.all(mags == self.ONES)

    def test_over_length_clip_rejected(self):
        clip = AudioClip(samples=np.ones(800_000), sample_rate=250_000)
        with pytest.raises(ClipTooLongError):
            padded_length(clip)
        with pytest.raises(ClipTooLongError):
            export_spectrogram(clip)

    def test_prefix_preserved_bit_exactly_after_load(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "pad.wav"
        write_raw_wav(path, fmt_tag=3, bits=32,
                      payload=rng.uniform(-1, 1, 5000).astype("<f4").tobytes())
        loaded = load_wav(path)
        assert padded_length(loaded) == 150_000
        padded = np.pad(loaded.samples, (0, 150_000 - 5000))  # 3 s at 50 kHz
        np.testing.assert_array_equal(export_spectrogram(loaded).magnitudes,
                                      one_shot_stft(padded, 4096, 500).astype(np.float32))


def _riff(*chunks) -> bytes:
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


_FMT = struct.pack("<HHIIHH", 1, 1, 50_000, 100_000, 2, 16)
_STEREO_FMT = struct.pack("<HHIIHH", 1, 2, 50_000, 200_000, 4, 16)
_EXTENSIBLE_FMT = (struct.pack("<HHIIHHHHIH", 0xFFFE, 1, 50_000, 100_000, 2, 16, 22, 16,
                               0x4, 1) + _KSDATAFORMAT_GUID_TAIL)
_DATA = b"\x00\x00" * 100
_SHORT_FMT = "missing or short fmt chunk"

# defect: (file bytes, the error load_wav raises, its message after the path)
CONTAINER_DEFECTS = {
    "not_riff": (b"OggS" + b"\x00" * 64, MalformedWavError, "not a RIFF/WAVE file"),
    "shorter_than_riff_header": (b"RIFF\x00\x00", MalformedWavError,
                                 "not a RIFF/WAVE file"),
    "rifx_magic": (b"RIFX" + _riff((b"fmt ", _FMT), (b"data", _DATA))[4:],
                   MalformedWavError, "not a RIFF/WAVE file"),
    "truncated_data_chunk": (_riff((b"fmt ", _FMT), (b"data", _DATA))[:-37],
                             MalformedWavError,
                             "chunk b'data' declares 200 bytes but file is truncated"),
    "truncated_trailing_chunk": (_riff((b"fmt ", _FMT), (b"data", _DATA))
                                 + b"LIST" + struct.pack("<I", 64) + b"abc",
                                 MalformedWavError,
                                 "chunk b'LIST' declares 64 bytes but file is truncated"),
    "missing_fmt": (_riff((b"data", _DATA)), MalformedWavError, _SHORT_FMT),
    "short_fmt": (_riff((b"fmt ", _FMT[:14]), (b"data", _DATA)), MalformedWavError,
                  _SHORT_FMT),
    "fmt_of_15_bytes": (_riff((b"fmt ", _FMT[:15]), (b"data", _DATA)), MalformedWavError,
                        _SHORT_FMT),
    "short_extensible_fmt": (_riff((b"fmt ", _EXTENSIBLE_FMT[:39]), (b"data", _DATA)),
                             MalformedWavError, "truncated extensible fmt chunk"),
    "first_fmt_is_stereo": (_riff((b"fmt ", _STEREO_FMT), (b"fmt ", _FMT),
                                  (b"data", _DATA)),
                            UnsupportedFormatError, "2 channels, mono required"),
    "missing_data": (_riff((b"fmt ", _FMT)), MalformedWavError, "missing data chunk"),
    "other_chunk_without_data": (_riff((b"fmt ", _FMT), (b"LIST", b"abcd")),
                                 MalformedWavError, "missing data chunk"),
    "empty_data": (_riff((b"fmt ", _FMT), (b"data", b"")), MalformedWavError,
                   "empty data chunk"),
    "empty_data_after_odd_chunk": (_riff((b"fmt ", _FMT), (b"LIST", b"abc"),
                                         (b"data", b"")),
                                   MalformedWavError, "empty data chunk"),
}


@pytest.mark.parametrize("defect", sorted(CONTAINER_DEFECTS))
def test_container_defects_rejected_alike(tmp_path, defect):
    content, error, message = CONTAINER_DEFECTS[defect]
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    with pytest.raises(error) as refusal:
        load_wav(path)
    assert type(refusal.value) is error
    assert str(refusal.value) == f"{path}: {message}"


FORMAT_DEFECTS = {  # defect: (write_raw_wav arguments, error, message after the path)
    "stereo": ({"channels": 2}, UnsupportedFormatError, "2 channels, mono required"),
    "compressed": ({"fmt_tag": 0x0055}, UnsupportedFormatError,
                   "compressed or unknown encoding (format tag 0x0055)"),
    "compressed_partial_frame": ({"fmt_tag": 0x0055, "payload": b"\x00" * 201},
                                 UnsupportedFormatError,
                                 "compressed or unknown encoding (format tag 0x0055)"),
    "zero_rate": ({"sample_rate": 0}, MalformedWavError, "invalid fmt fields"),
    "zero_block_align": ({"block_align": 0}, MalformedWavError, "invalid fmt fields"),
    "partial_frame": ({"payload": b"\x00" * 201}, MalformedWavError,
                      "data chunk is not a whole number of frames"),
    "block_align_under_sample_width": ({"bits": 16, "block_align": 1},
                                       MalformedWavError,
                                       "block_align 1 does not fit 16-bit samples"),
    "pcm_bit_depth": ({"bits": 12, "block_align": 2}, UnsupportedFormatError,
                      "12-bit samples not supported for format tag 0x0001"),
    "pcm_9_bit_depth": ({"bits": 9, "block_align": 2}, UnsupportedFormatError,
                        "9-bit samples not supported for format tag 0x0001"),
    "float_bit_depth": ({"fmt_tag": 3, "bits": 16}, UnsupportedFormatError,
                        "16-bit samples not supported for format tag 0x0003"),
}


@pytest.mark.parametrize("defect", sorted(FORMAT_DEFECTS))
def test_format_defects_rejected_alike(tmp_wav_factory, defect):
    kwargs, error, message = FORMAT_DEFECTS[defect]
    path = tmp_wav_factory(**kwargs)
    with pytest.raises(error) as refusal:
        load_wav(path)
    assert type(refusal.value) is error
    assert str(refusal.value) == f"{path}: {message}"


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


def test_fuzzed_bytes_raise_only_pipeline_errors(tmp_path, monkeypatch):
    """load_wav returns a clip or raises one of its three errors (a 1 Hz
    header over 3 frames is too long), and the decoder is reached."""
    decoded = []
    decode = audio_io._decode
    monkeypatch.setattr(audio_io, "_decode",
                        lambda *args: decoded.append(True) or decode(*args))
    path = tmp_path / "fuzz.wav"

    @settings(max_examples=1000, deadline=None)
    @given(data=_fuzzed_wav())
    def read(data):
        path.write_bytes(data)
        try:
            load_wav(path)
        except (MalformedWavError, UnsupportedFormatError, ClipTooLongError):
            pass

    read()
    assert decoded


# (format tag, bits) of each encoding load_wav decodes
_ENCODINGS = ((1, 8), (1, 16), (1, 24), (1, 32), (3, 32), (3, 64))


def test_fuzzed_bodies_under_valid_headers_reach_the_decoder(tmp_path, monkeypatch):
    """A well-formed mono header of each supported encoding over a random
    body of whole frames, at rates as low as 1 Hz, so some bodies are over
    3 s: load_wav returns the body's frames at the header's rate or raises
    one of its three errors, and most examples reach the decoder."""
    decoded = []
    decode = audio_io._decode
    monkeypatch.setattr(audio_io, "_decode",
                        lambda *args: decoded.append(True) or decode(*args))
    path = tmp_path / "fuzz.wav"
    outcomes = []

    @settings(max_examples=500, deadline=None)
    @given(encoding=st.sampled_from(_ENCODINGS), rate=st.integers(1, 30),
           body=st.binary(min_size=8, max_size=2048))
    def read(encoding, rate, body):
        tag, bits = encoding
        body = body[:len(body) // (bits // 8) * (bits // 8)]
        write_raw_wav(path, sample_rate=rate, fmt_tag=tag, bits=bits, payload=body)
        try:
            clip = load_wav(path)
        except (MalformedWavError, UnsupportedFormatError, ClipTooLongError) as exc:
            outcomes.append(type(exc))
        else:
            assert (clip.samples.size, clip.sample_rate) == (len(body) // (bits // 8), rate)
            outcomes.append(AudioClip)

    read()
    assert {AudioClip, ClipTooLongError} <= set(outcomes)
    assert len(decoded) > len(outcomes) // 2
