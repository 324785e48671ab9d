"""The benchmark's output checks flag broken artifacts.

Run from the repository root:  PYTHONPATH=src python -m pytest benchmarks
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from usvpipe.spectral import Spectrogram, write_tensor  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _features(out: Path, emitters: dict[str, str]) -> None:
    rows = ["utterance_id,emitter_id,context,duration_s," + ",".join(["f"] * 10)]
    rows += [f"{uid},{em},general,0.5," + ",".join(["1"] * 10)
             for uid, em in emitters.items()]
    (out / "features.csv").write_text("# usvpipe stamp\n" + "\n".join(rows) + "\n")


def _folds(out: Path, tests: dict[str, int]) -> None:
    rows = ["utterance_id,fold,role"]
    for uid, test_fold in tests.items():
        rows += [f"{uid},{fold},{'test' if fold == test_fold else 'train'}"
                 for fold in range(3)]
    (out / "folds.csv").write_text("\n".join(rows) + "\n")


def test_fold_plan_sharing_an_emitter_is_flagged(tmp_path):
    _features(tmp_path, {"a": "bat0", "b": "bat1", "c": "bat2", "d": "bat0"})
    _folds(tmp_path, {"a": 0, "b": 1, "c": 2, "d": 0})
    assert checks.check_folds(tmp_path) == []

    _folds(tmp_path, {"a": 0, "b": 1, "c": 2, "d": 1})  # bat0 tested in 0 and 1
    problems = checks.check_folds(tmp_path)
    assert any("bat0" in p for p in problems)


def test_utterance_tested_twice_or_never_is_flagged(tmp_path):
    _features(tmp_path, {"a": "bat0", "b": "bat1", "c": "bat2"})
    _folds(tmp_path, {"a": 0, "b": 1})
    assert any("not tested exactly once" in p for p in checks.check_folds(tmp_path))


def _manifest(out: Path, uids) -> None:
    rows = ["utterance_id,file,frames,bins"]
    rows += [f"{uid},spectrograms/{uid}.usvt,299,2049" for uid in uids]
    (out / "spectrogram_manifest.csv").write_text("\n".join(rows) + "\n")


def test_truncated_tensor_is_flagged(tmp_path):
    (tmp_path / "spectrograms").mkdir()
    spec = Spectrogram(magnitudes=np.ones(checks.EXPORT_SHAPE), frame_hop_s=0.01,
                       window_s=0.016, bin_hz=61.0, sample_rate=250_000)
    for uid in ("a", "b"):
        write_tensor(spec, tmp_path / "spectrograms" / f"{uid}.usvt")
    _manifest(tmp_path, ["a", "b"])
    assert checks.check_tensors(tmp_path, 2) == ([], 2)

    path = tmp_path / "spectrograms" / "b.usvt"
    path.write_bytes(path.read_bytes()[:-4])
    problems, good = checks.check_tensors(tmp_path, 2)
    assert good == 1 and len(problems) == 1 and "tensor b" in problems[0]


def test_digests_ignore_provenance_stamps(tmp_path):
    (tmp_path / "x.csv").write_text("# usvpipe 0.1.0 seed=7 config=aaa\nk,v\n1,2\n")
    (tmp_path / "report.json").write_text(json.dumps(
        {"uar": 0.5, "provenance": {"config": "aaa", "seed": 7}}))
    first = checks.artifact_digests(tmp_path)
    (tmp_path / "x.csv").write_text("# usvpipe 0.1.0 seed=7 config=bbb\nk,v\n1,2\n")
    (tmp_path / "report.json").write_text(json.dumps(
        {"uar": 0.5, "provenance": {"config": "bbb", "seed": 7}}))
    assert checks.artifact_digests(tmp_path) == first
    (tmp_path / "x.csv").write_text("# usvpipe 0.1.0 seed=7 config=bbb\nk,v\n1,3\n")
    assert checks.artifact_digests(tmp_path) != first


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
