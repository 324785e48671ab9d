"""Metamorphic relations over the whole pipeline.

No oracle knows the right artifacts for a corpus, but some changes to the
input must leave them as they are.  Each relation runs the stages through
cli.main on a corpus and on a transformed copy, with the same seed, and
compares whole artifacts, provenance stamps included: the config hash
covers no path, so a copy's stamps are the original's.  The corpora are
the quick-start one (synth --seed 7 --emitters 12 --per-class 50), a small
one (synth --seed 7 --emitters 4 --per-class 4) and, for the feature
columns, a feature table of 11 overlapping classes, on which the
classifier is far from perfect.
"""
import json
import re
import shutil

import numpy as np
import pytest

from usvpipe.artifacts import write_table
from usvpipe.audio_io import load_wav
from usvpipe.cli import main
from usvpipe.corpus import CONTEXT_LABELS
from usvpipe.pitch import FEATURE_CSV_COLUMNS

from conftest import write_raw_wav

STAGES = ("extract", "partition", "train-eval", "table1", "export-spectrograms")


def _run(config, out, stages=STAGES, flags=()):
    for stage in stages:
        assert main([stage, "--config", str(config), "--out", str(out), *flags]) == 0


def _changed(out, expected, undo=lambda text: text) -> list[str]:
    """The artifacts that differ between two output directories, or are in
    one of them only.  undo maps each path under out, and the text of each
    artifact there but a tensor, to expected's."""
    def files(base, rename):
        return {rename(path.relative_to(base).as_posix()): path
                for path in base.rglob("*") if path.is_file()}

    def undone(path) -> bytes:
        data = path.read_bytes()
        return data if path.suffix == ".usvt" else undo(data.decode()).encode()

    got, want = files(out, undo), files(expected, str)
    return sorted(name for name in got.keys() | want.keys()
                  if name not in got or name not in want
                  or undone(got[name]) != want[name].read_bytes())


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The quick-start corpus, pushed through all five stages once.  The
    outputs are removed at the end, as their 550 tensors fill 1.3 GB."""
    root = tmp_path_factory.mktemp("quick_start")
    corpus = root / "demo"
    assert main(["synth", "--out", str(corpus), "--seed", "7", "--emitters", "12",
                 "--per-class", "50"]) == 0
    _run(corpus / "config.json", corpus / "results")
    yield root, corpus
    shutil.rmtree(corpus / "results")


def test_permuted_annotation_rows_change_no_artifact(quick_start):
    root, corpus = quick_start
    header, *rows = (corpus / "annotations.csv").read_text().splitlines(keepends=True)
    order = np.random.default_rng(7).permutation(len(rows))
    assert (order != np.arange(len(rows))).any()
    permuted = root / "permuted.csv"
    permuted.write_text(header + "".join(rows[i] for i in order))
    out = root / "permuted_results"
    try:
        _run(corpus / "config.json", out, flags=("--annotations", str(permuted)))
        assert _changed(out, corpus / "results") == []
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_float_wavs_at_half_amplitude_change_no_feature(quick_start):
    """Every WAV rewritten as 32-bit float at exactly half its amplitude (a
    16-bit sample halved is exact in float32): the gated contour is
    invariant to a positive rescaling, so features.csv is unchanged."""
    root, corpus = quick_start
    copy = root / "float_half"
    shutil.copytree(corpus, copy, ignore=shutil.ignore_patterns("results"))
    for wav in sorted((copy / "wavs").iterdir()):
        clip = load_wav(wav)
        amplitudes = clip.samples * clip.scale
        half = (amplitudes * 0.5).astype("<f4")
        assert (half.astype(np.float64) == amplitudes * 0.5).all()
        write_raw_wav(wav, sample_rate=clip.sample_rate, fmt_tag=3, bits=32,
                      payload=half.tobytes())
    out = copy / "results"
    _run(copy / "config.json", out, ("extract",))
    assert (out / "features.csv").read_bytes() == (
        corpus / "results" / "features.csv").read_bytes()


def test_32bit_pcm_wavs_of_the_same_amplitudes_change_no_artifact(quick_start):
    """Every WAV rewritten as 32-bit PCM, each 16-bit sample times 2^16: the
    amplitudes are the same numbers, so features.csv and every tensor are
    identical.  This runs the int32 clips end to end."""
    root, corpus = quick_start
    copy = root / "pcm32"
    shutil.copytree(corpus, copy, ignore=shutil.ignore_patterns("results"))
    for wav in sorted((copy / "wavs").iterdir()):
        clip = load_wav(wav)
        assert clip.samples.dtype == np.dtype("<i2")
        write_raw_wav(wav, sample_rate=clip.sample_rate, bits=32,
                      payload=(clip.samples.astype("<i4") << 16).tobytes())
    out = copy / "results"
    try:
        _run(copy / "config.json", out, ("extract", "export-spectrograms"))
        written = sorted(path.relative_to(out) for path in out.rglob("*")
                         if path.is_file())
        assert len([name for name in written if name.suffix == ".usvt"]) == 550
        assert [name for name in written if (out / name).read_bytes()
                != (corpus / "results" / name).read_bytes()] == []
    finally:
        shutil.rmtree(out, ignore_errors=True)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 44-clip corpus of 4 emitters, pushed through all five stages once."""
    root = tmp_path_factory.mktemp("small")
    corpus = root / "demo"
    assert main(["synth", "--out", str(corpus), "--seed", "7", "--emitters", "4",
                 "--per-class", "4"]) == 0
    _run(corpus / "config.json", corpus / "results")
    return root, corpus


def _copy_with_annotations(corpus, copy, edit) -> None:
    """The corpus without its results, with edit(row) applied to each data
    row of annotations.csv (a list of its cells)."""
    shutil.copytree(corpus, copy, ignore=shutil.ignore_patterns("results"))
    header, *rows = (copy / "annotations.csv").read_text().splitlines()
    (copy / "annotations.csv").write_text("".join(
        f"{line}\n" for line in [header] + [",".join(edit(row.split(",")))
                                            for row in rows]))


def test_renamed_ids_in_the_same_order_change_no_artifact(small_corpus):
    """u... -> w... and bat... -> cat... keep the ids' order, so every artifact
    is the same once the renaming is undone: the plan and the predictions
    follow from the order of the ids, not from their text."""
    root, corpus = small_corpus
    copy = root / "renamed"

    def rename(row):
        uid, emitter, *rest = row
        assert re.fullmatch(r"u\d{6}", uid) and re.fullmatch(r"bat\d\d", emitter)
        return ["w" + uid[1:], "c" + emitter[1:], *rest]

    def undo(text):
        text = re.sub(r"\bw(\d{6})\b", r"u\1", text)
        return re.sub(r"\bcat(\d\d)\b", r"bat\1", text)

    _copy_with_annotations(corpus, copy, rename)
    _run(copy / "config.json", copy / "results")
    assert undo("spectrograms/w000012.usvt,cat03") == "spectrograms/u000012.usvt,bat03"
    assert _changed(copy / "results", corpus / "results", undo) == []


def test_raw_context_codes_mapped_by_the_schema_change_no_artifact(small_corpus):
    """The annotation table holds codes c00-c10, and the schema's context_map
    maps each to its label: every artifact is the same as with the labels."""
    root, corpus = small_corpus
    copy = root / "coded"
    code = {label: f"c{i:02d}" for i, label in enumerate(CONTEXT_LABELS)}

    def encode(row):
        uid, emitter, context, *rest = row
        return [uid, emitter, code[context], *rest]

    _copy_with_annotations(corpus, copy, encode)
    schema = json.loads((copy / "schema.json").read_text())
    assert schema["context_map"] == {label: label for label in CONTEXT_LABELS}
    schema["context_map"] = {c: label for label, c in code.items()}
    (copy / "schema.json").write_text(json.dumps(schema))
    _run(copy / "config.json", copy / "results")
    assert _changed(copy / "results", corpus / "results") == []


def _overlapping_features():
    """330 feature rows, 30 per class, over 12 emitters: per column, a class
    mean and an emitter offset plus unit noise, so the classes overlap.
    The duration is an exact text, the ten features are floats."""
    rng = np.random.default_rng(7)
    class_means = rng.normal(0.0, 0.35, (len(CONTEXT_LABELS), 10))
    offsets = rng.normal(0.0, 0.3, (12, 10))
    rows = []
    for label, mean in zip(CONTEXT_LABELS, class_means):
        for _ in range(30):
            emitter = len(rows) % 12
            z = mean + offsets[emitter] + rng.standard_normal(10)
            rows.append([f"u{len(rows):06d}", f"bat{emitter:02d}", label,
                         repr(float(rng.uniform(0.5, 1.0))), *z])
    return rows


def test_a_power_of_two_per_feature_column_changes_no_prediction(tmp_path):
    """Standardisation undoes any positive scale of a column, and a power of
    two scales a column's mean and std exactly, so the fold plan, the
    predictions, the confusion and report.json (its provenance included)
    are the same.  The scaled values are written as exact texts: write_table
    would round a float to 6 digits, which does not commute with scaling."""
    rows = _overlapping_features()
    scales = 2.0 ** np.array([-7, 3, 1, -2, 5, 0, 9, -4, 2, -1])
    outputs = []
    for name, scale in (("plain", np.ones(10)), ("scaled", scales)):
        out = tmp_path / name
        write_table(out / "features.csv", tuple(FEATURE_CSV_COLUMNS),
                    [row[:4] + [repr(float(v)) for v in np.multiply(row[4:], scale)]
                     for row in rows], "stamp")
        for stage in ("partition", "train-eval"):
            assert main([stage, "--out", str(out), "--seed", "7"]) == 0
        outputs.append(out)
    plain, scaled = outputs
    report = json.loads((plain / "report.json").read_text())
    assert 0.15 < report["uar"] < 0.5, "the classes should overlap"
    assert len(set(report["provenance"]["chosen_costs"].values())) > 1
    for name in ("folds.csv", "predictions.csv", "confusion.csv", "report.json"):
        assert (scaled / name).read_bytes() == (plain / name).read_bytes(), name
