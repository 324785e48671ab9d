"""Metamorphic relations over the whole pipeline.

No oracle knows the right artifacts for a corpus, but some changes to the
input must leave them as they are.  Each relation runs the stages through
cli.main on the quick-start corpus (synth --seed 7 --emitters 12
--per-class 50) and on a transformed copy, and compares the artifacts below
their provenance stamps, which hash the input paths.
"""
import json
import shutil

import numpy as np
import pytest

from usvpipe.audio_io import load_wav
from usvpipe.cli import main

from conftest import write_raw_wav

STAGES = ("extract", "partition", "train-eval", "table1", "export-spectrograms")


def _run(config, out, stages=STAGES, flags=()):
    for stage in stages:
        assert main([stage, "--config", str(config), "--out", str(out), *flags]) == 0


def _below_stamp(path) -> bytes:
    """The artifact's bytes without its provenance: a text table's leading
    comment lines, report.json's provenance object."""
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        del report["provenance"]
        return json.dumps(report, sort_keys=True).encode()
    if path.suffix == ".csv":
        lines = data.splitlines(keepends=True)
        while lines and lines[0].startswith(b"#"):
            lines.pop(0)
        return b"".join(lines)
    return data


def _changed(out, expected) -> list[str]:
    """The artifacts that differ below their stamps between two output
    directories, or are in one of them only."""
    names = {path.relative_to(base).as_posix() for base in (out, expected)
             for path in base.rglob("*") if path.is_file()}
    return sorted(name for name in names
                  if not ((out / name).is_file() and (expected / name).is_file())
                  or _below_stamp(out / name) != _below_stamp(expected / name))


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
        half = (clip.samples * 0.5).astype("<f4")
        assert (half.astype(np.float64) == clip.samples * 0.5).all()
        write_raw_wav(wav, sample_rate=clip.sample_rate, fmt_tag=3, bits=32,
                      payload=half.tobytes())
    out = copy / "results"
    _run(copy / "config.json", out, ("extract",))
    assert _below_stamp(out / "features.csv") == _below_stamp(
        corpus / "results" / "features.csv")
