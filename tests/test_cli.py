import json

import pytest

from usvpipe.cli import main
from usvpipe.spectral import read_tensor
from usvpipe.synth import SEPARABLE_CLASS_SPECS, synth_corpus


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Four well-separated classes, 4 emitters, 10 per class, pushed through
    every stage once; tests only inspect the artifacts."""
    root = tmp_path_factory.mktemp("corpus")
    specs = {k: SEPARABLE_CLASS_SPECS[k]
             for k in ("biting", "feeding", "isolation", "sleeping")}
    synth_corpus(root, n_emitters=4, per_class_count=10, class_specs=specs,
                 seed=21, sample_rate=50_000)
    config = {
        "annotation_file": str(root / "annotations.csv"),
        "schema_file": str(root / "schema.json"),
        "audio_dir": str(root),
        "output_dir": str(root / "results"),
        "seed": 21,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    for cmd in ("extract", "partition"):
        assert main([cmd, "--config", str(config_path)]) == 0
    assert main(["train-eval", "--config", str(config_path),
                 "--grid", "0.1,1", "--replicates", "100"]) == 0
    return root, config_path


def test_extract_writes_features_for_all(small_corpus):
    root, config = small_corpus
    lines = [l for l in (root / "results" / "features.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 41  # header + 40 rows
    assert lines[0].startswith("utterance_id,emitter_id,context,duration_s,f0_mean_all")
    report = (root / "results" / "filter_report.csv").read_text()
    assert "retained,40" in report


def test_train_eval_report(small_corpus):
    root, config = small_corpus
    report = json.loads((root / "results" / "report.json").read_text())
    assert report["n"] == 40
    assert 0.0 <= report["uar"] <= 1.0
    assert len(report["labels"]) == 4
    assert (root / "results" / "model_fold0.csv").exists()
    assert (root / "results" / "predictions.csv").exists()
    assert (root / "results" / "confusion.csv").exists()


def test_table1_per_context_stats(small_corpus):
    root, config = small_corpus
    assert main(["table1", "--config", str(config)]) == 0
    lines = (root / "results" / "context_f0_stats.csv").read_text().splitlines()
    assert lines[1] == "context,n,mean_hz,std_hz,max_hz,min_hz,slope_hz_per_s"
    contexts = [l.split(",")[0] for l in lines[2:]]
    assert contexts == ["biting", "feeding", "isolation", "sleeping"]
    biting_mean = float(lines[2].split(",")[2])
    assert abs(biting_mean - SEPARABLE_CLASS_SPECS["biting"]["f0_mean"]) < 300


def test_export_spectrograms_shapes(small_corpus):
    root, config = small_corpus
    assert main(["export-spectrograms", "--config", str(config)]) == 0
    tensors = sorted((root / "results" / "spectrograms").glob("*.usvt"))
    assert len(tensors) == 40
    matrix = read_tensor(tensors[0])
    # at 50 kHz: pad to 3 s = 150000 samples, hop 500 -> 292 frames x 2049 bins
    assert matrix.shape == ((150_000 - 4096) // 500 + 1, 2049)


def test_table1_empty_feature_file_exits_zero(tmp_path):
    from usvpipe.pitch import write_feature_csv
    out = tmp_path / "results"
    out.mkdir()
    write_feature_csv(out / "features.csv", [])
    assert main(["table1", "--out", str(out)]) == 0
    lines = (out / "context_f0_stats.csv").read_text().splitlines()
    assert lines[1].startswith("context,")
    assert len(lines) == 2  # provenance + header, no data rows


def test_synth_subcommand_generates_runnable_corpus(tmp_path):
    out = tmp_path / "gen"
    assert main(["synth", "--out", str(out), "--seed", "3", "--emitters", "3",
                 "--per-class", "1", "--sample-rate", "50000"]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["seed"] == 3
    wavs = list((out / "wavs").glob("*.wav"))
    assert len(wavs) == 11  # one per context label
    assert main(["extract", "--config", str(out / "config.json")]) == 0


def test_artifacts_carry_provenance_header(small_corpus):
    root, config = small_corpus
    for name in ("features.csv", "folds.csv", "confusion.csv", "filter_report.csv"):
        first = (root / "results" / name).read_text().splitlines()[0]
        assert first.startswith("# usvpipe ")
        assert "seed=21" in first and "config=" in first
    for path in (root / "results").glob("*.csv"):
        assert b"\r" not in path.read_bytes(), path.name
    report = json.loads((root / "results" / "report.json").read_text())
    assert report["provenance"]["seed"] == 21
    assert report["provenance"]["tool"].startswith("usvpipe ")


def test_missing_annotation_file_exits_nonzero(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "annotation_file": str(tmp_path / "absent.csv"),
        "schema_file": str(tmp_path / "absent.json"),
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["extract", "--config", str(config)]) != 0


def test_corrupt_wav_below_tolerance_still_succeeds(tmp_path):
    specs = {k: SEPARABLE_CLASS_SPECS[k] for k in ("biting", "feeding")}
    synth_corpus(tmp_path, n_emitters=3, per_class_count=60, class_specs=specs,
                 seed=5, sample_rate=50_000)
    # corrupt exactly one file out of 120 (< 1 %)
    victim = sorted((tmp_path / "wavs").iterdir())[7]
    victim.write_bytes(b"RIFFgarbage")
    code = main(["extract", "--annotations", str(tmp_path / "annotations.csv"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--audio-dir", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 0
    lines = [l for l in (tmp_path / "out" / "features.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 120  # header + 119 rows
    skip = (tmp_path / "out" / "skip_report.csv").read_text()
    assert "error:MalformedWavError" in skip


def test_many_corrupt_wavs_exit_nonzero(tmp_path):
    specs = {"biting": SEPARABLE_CLASS_SPECS["biting"]}
    synth_corpus(tmp_path, n_emitters=3, per_class_count=20, class_specs=specs,
                 seed=6, sample_rate=50_000)
    for victim in sorted((tmp_path / "wavs").iterdir())[:5]:
        victim.write_bytes(b"RIFFgarbage")
    code = main(["extract", "--annotations", str(tmp_path / "annotations.csv"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--audio-dir", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1


def test_artifacts_byte_identical_across_reruns(tmp_path):
    specs = {k: SEPARABLE_CLASS_SPECS[k] for k in ("biting", "feeding", "grooming")}
    synth_corpus(tmp_path / "c", n_emitters=3, per_class_count=6,
                 class_specs=specs, seed=9, sample_rate=50_000)
    args = ["--annotations", str(tmp_path / "c" / "annotations.csv"),
            "--schema", str(tmp_path / "c" / "schema.json"),
            "--audio-dir", str(tmp_path / "c"), "--seed", "9",
            "--grid", "0.1", "--replicates", "50"]
    outputs = []
    for out in ("r1", "r2"):
        out_dir = tmp_path / out
        for cmd in ("extract", "partition", "train-eval"):
            assert main([cmd] + args + ["--out", str(out_dir)]) == 0
        outputs.append(out_dir)
    for name in ("features.csv", "folds.csv", "predictions.csv", "report.json",
                 "confusion.csv", "model_fold0.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def test_truncated_feature_table_exits_2_naming_the_line(tmp_path, caplog):
    from usvpipe.pitch import FeatureRecord, FeatureVector, write_feature_csv
    out = tmp_path / "results"
    out.mkdir()
    fv = FeatureVector(*([9000.0] * 10))
    write_feature_csv(out / "features.csv", [
        FeatureRecord(f"u{i}", f"bat{i % 3}", "biting", 0.5, fv) for i in range(6)],
        comment="stamp")
    lines = (out / "features.csv").read_text().splitlines(keepends=True)
    (out / "features.csv").write_text("".join(lines[:-1]) + lines[-1][:4])  # "u5,b"
    assert main(["partition", "--out", str(out)]) == 2
    assert "features.csv:8: expected 14 fields, got 2" in caplog.text


def test_hash_prefixed_utterance_id_is_tested_once(tmp_path):
    from usvpipe.partition import read_fold_plan
    specs = {k: SEPARABLE_CLASS_SPECS[k] for k in ("biting", "feeding")}
    annotations, schema = synth_corpus(tmp_path, n_emitters=3, per_class_count=3,
                                       class_specs=specs, seed=4, sample_rate=50_000)
    # id column last, so the annotation reader does not take "#u000000" for a comment
    lines = annotations.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    rows[1][0] = "#" + rows[1][0]
    annotations.write_text("".join(",".join(r[1:] + r[:1]) + "\n" for r in rows))
    out = tmp_path / "out"
    args = ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(tmp_path), "--out", str(out)]
    assert main(["extract"] + args) == 0
    assert main(["partition"] + args) == 0
    plan = read_fold_plan(out / "folds.csv")
    assert sorted(plan.test_fold) == ["#u000000"] + [f"u{i:06d}" for i in range(1, 6)]
