import errno
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from usvpipe import audio_io, cli
from usvpipe.audio_io import AudioClip, write_wav
from usvpipe.cli import main
from usvpipe.spectral import read_tensor
from usvpipe.synth import SEPARABLE_CLASS_SPECS, synth_corpus

from conftest import write_raw_wav


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
    capped = report["provenance"]["capped_machines"]
    assert set(capped) == set(report["provenance"]["chosen_costs"])
    assert all(isinstance(count, int) and count >= 0 for count in capped.values())


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


def _blank_duration_corpus(root, per_class):
    """Two classes, 3 emitters, with the duration column blanked, so the
    cohort filter reads every duration from the WAV header."""
    specs = {k: SEPARABLE_CLASS_SPECS[k] for k in ("biting", "feeding")}
    annotations, schema = synth_corpus(root, n_emitters=3, per_class_count=per_class,
                                       class_specs=specs, seed=5, sample_rate=50_000)
    rows = annotations.read_text().splitlines()
    annotations.write_text("\n".join([rows[0]] + [r.rsplit(",", 1)[0] + ","
                                                   for r in rows[1:]]) + "\n")
    return ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(root)]


def test_bad_frame_size_without_annotated_duration_costs_one_row(tmp_path):
    # the cohort filter reads durations from the WAV headers, so a header
    # it rejects must cost one row, not end the run
    args = _blank_duration_corpus(tmp_path, per_class=60)
    victim = sorted((tmp_path / "wavs").iterdir())[7]
    write_raw_wav(victim, bits=16, block_align=1, payload=b"\x00" * 2000)
    code = main(["extract"] + args + ["--out", str(tmp_path / "out")])
    assert code == 0  # 1 of 120 files is under the 1 % tolerance
    skips = [l for l in (tmp_path / "out" / "skip_report.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert skips == ["utterance_id,reason", f"{victim.stem},error:MalformedWavError"]


def test_unreadable_headers_without_durations_cost_one_row_per_stage(tmp_path):
    args = _blank_duration_corpus(tmp_path, per_class=100)
    garbage, stereo = sorted((tmp_path / "wavs").iterdir())[3:5]
    garbage.write_bytes(b"RIFFgarbage")
    write_raw_wav(stereo, channels=2)
    out = tmp_path / "out"
    expected = ["utterance_id,reason", f"{garbage.stem},error:MalformedWavError",
                f"{stereo.stem},error:UnsupportedFormatError"]
    for stage, skip_report in (("extract", "skip_report.csv"),
                               ("export-spectrograms", "export_skip_report.csv")):
        assert main([stage] + args + ["--out", str(out)]) == 0  # 2 of 200 is 1 %
        skips = [l for l in (out / skip_report).read_text().splitlines()
                 if not l.startswith("#")]
        assert skips == expected, stage
        assert "retained,200" in (out / "filter_report.csv").read_text()
    assert len((out / "features.csv").read_text().splitlines()) == 2 + 198
    assert len(list((out / "spectrograms").glob("*.usvt"))) == 198


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
    assert sorted(plan.roles) == ["#u000000"] + [f"u{i:06d}" for i in range(1, 6)]


def _three_class_corpus(root, per_class=4, seed=9):
    specs = {k: SEPARABLE_CLASS_SPECS[k] for k in ("biting", "feeding", "grooming")}
    annotations, schema = synth_corpus(root, n_emitters=3, per_class_count=per_class,
                                       class_specs=specs, seed=seed,
                                       sample_rate=50_000)
    return ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(root)]


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(cli, "_worker_count", lambda items: max(1, min(workers, items)))


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [cli._worker_count(n) for n in (0, 1, 2, 3, 50)] == [1, 1, 2, 3, 3]


def test_ordered_map_keeps_order_and_returns_errors(monkeypatch):
    _use_workers(monkeypatch, 2)

    def slow_for_early_items(i):
        time.sleep(0.02 * (5 - i))  # later items finish first
        if i == 2:
            raise ValueError("item 2")
        return i * 10

    results = list(cli._map_ordered(slow_for_early_items, list(range(5))))
    assert [r for r in results if not isinstance(r, Exception)] == [0, 10, 30, 40]
    assert isinstance(results[2], ValueError) and str(results[2]) == "item 2"


def test_artifacts_identical_for_one_and_two_workers(tmp_path, monkeypatch):
    args = _three_class_corpus(tmp_path / "c")
    outputs = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        for cmd in ("extract", "export-spectrograms"):
            assert main([cmd] + args + ["--out", str(out)]) == 0
        outputs.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(outputs[0]) == 5 + 12  # five tables plus one tensor per utterance
    assert outputs[0] == outputs[1]


def test_rate_warning_logged_once_with_two_workers(tmp_path, monkeypatch, caplog):
    args = _three_class_corpus(tmp_path / "c", per_class=6)
    monkeypatch.setattr(audio_io, "_warned_rates", set())
    _use_workers(monkeypatch, 2)
    assert main(["extract"] + args + ["--out", str(tmp_path / "out")]) == 0
    warnings = [r for r in caplog.records
                if "50000 Hz differs from the expected corpus rate" in r.getMessage()]
    assert len(warnings) == 1


def test_export_skips_an_over_long_clip(tmp_path):
    args = _three_class_corpus(tmp_path / "c")
    # annotated as under a second, so the cohort filter keeps it
    victim = sorted((tmp_path / "c" / "wavs").iterdir())[4]
    write_wav(victim, AudioClip(samples=np.zeros(175_000), sample_rate=50_000))
    out = tmp_path / "out"
    assert main(["export-spectrograms"] + args + ["--out", str(out)]) == 1  # 1/12 > 1 %
    skips = [l for l in (out / "export_skip_report.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert skips == ["utterance_id,reason", f"{victim.stem},error:ClipTooLongError"]
    manifest = [l.split(",") for l in
                (out / "spectrogram_manifest.csv").read_text().splitlines()[2:]]
    assert len(manifest) == 11
    assert victim.stem not in {row[0] for row in manifest}
    for uid, rel, frames, bins in manifest:
        assert read_tensor(out / rel).shape == (int(frames), int(bins))


def test_full_disk_stops_export_at_once(tmp_path, monkeypatch):
    args = _three_class_corpus(tmp_path / "c")
    _use_workers(monkeypatch, 2)
    calls = []

    def disk_full(spec, path):
        calls.append(path)
        time.sleep(0.05)
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli, "write_tensor", disk_full)
    out = tmp_path / "out"
    assert main(["export-spectrograms"] + args + ["--out", str(out)]) == 2
    assert not (out / "spectrogram_manifest.csv").exists()
    assert not (out / "export_skip_report.csv").exists()
    time.sleep(0.5)  # time enough for two workers to reach all 12 files
    assert len(calls) < 12  # the files not yet started were dropped


@pytest.mark.parametrize("payload,message", [
    ([1, 2], "a config file must hold a JSON object"),
    ({"seed": 3, "cost_gird": [0.1]}, "unknown settings ['cost_gird']")])
def test_config_file_must_be_an_object_of_known_settings(tmp_path, caplog,
                                                         payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert main(["train-eval", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{config}: {message}" in caplog.text


@pytest.mark.parametrize("flag,setting", [
    ("--grid=-1", "cost_grid"), ("--grid=0", "cost_grid"),
    ("--replicates=0", "bootstrap_replicates"),
    ("--replicates=-1", "bootstrap_replicates")])
def test_invalid_setting_exits_2_naming_it(small_corpus, tmp_path, caplog, flag,
                                          setting):
    root, _config = small_corpus
    for name in ("features.csv", "folds.csv"):  # train-eval's inputs
        (tmp_path / name).write_bytes((root / "results" / name).read_bytes())
    assert main(["train-eval", "--out", str(tmp_path), flag]) == 2
    assert f"invalid {setting}" in caplog.text
    assert not (tmp_path / "report.json").exists()


def _set_role(row: str, role: str) -> str:
    return row.rsplit(",", 1)[0] + f",{role}\n"


def _test_once_more(rows: list[str]) -> list[str]:
    """The first utterance's first train/val row made a second test row."""
    i = next(i for i, row in enumerate(rows[:3]) if not row.endswith(",test\n"))
    return rows[:i] + [_set_role(rows[i], "test")] + rows[i + 1:]


# (table edited, edit of its data rows); the first utterance is the stale one
STALE_INPUTS = {
    "featured_utterance_not_in_folds": ("folds.csv", lambda rows: rows[3:]),
    "fold_row_without_features": ("features.csv", lambda rows: rows[1:]),
    "one_fold_row_missing": ("folds.csv", lambda rows: rows[1:]),
    "tested_in_two_folds": ("folds.csv", _test_once_more),
    "unknown_role": ("folds.csv",
                     lambda rows: [_set_role(rows[0], "holdout")] + rows[1:]),
    "feature_row_twice": ("features.csv", lambda rows: rows[:1] + rows),
}


@pytest.mark.parametrize("case", sorted(STALE_INPUTS))
def test_train_eval_refuses_features_and_folds_that_disagree(small_corpus, tmp_path,
                                                             caplog, case):
    root, _config = small_corpus
    name, edit = STALE_INPUTS[case]
    for table in ("features.csv", "folds.csv"):
        (tmp_path / table).write_bytes((root / "results" / table).read_bytes())
    lines = (tmp_path / name).read_text().splitlines(keepends=True)
    (tmp_path / name).write_text("".join(lines[:2] + edit(lines[2:])))  # stamp, header
    stale_id = lines[2].split(",")[0]
    assert main(["train-eval", "--out", str(tmp_path)]) == 2
    assert f"utterance {stale_id} " in caplog.text
    assert "folds.csv" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv", "folds.csv"]


SETTING_FLAGS = {  # RunConfig field: (flag arguments, value from the flag)
    "annotation_file": (["--annotations", "f/a.csv"], Path("f/a.csv")),
    "schema_file": (["--schema", "f/s.json"], Path("f/s.json")),
    "audio_dir": (["--audio-dir", "f/audio"], Path("f/audio")),
    "output_dir": (["--out", "f/out"], Path("f/out")),
    "seed": (["--seed", "9"], 9),
    "cost_grid": (["--grid", "0.1,1"], (0.1, 1.0)),
    "bootstrap_replicates": (["--replicates", "30"], 30),
}
SETTING_FILE = {"annotation_file": "c/a.csv", "schema_file": "c/s.json",
                "audio_dir": "c/audio", "output_dir": "c/out", "seed": 5,
                "cost_grid": [0.5, 2], "bootstrap_replicates": 20}


def _resolved(argv):
    return cli._resolve_config(cli.build_parser().parse_args(["extract"] + argv))


@pytest.mark.parametrize("field", sorted(SETTING_FLAGS))
def test_setting_takes_flag_then_config_file_then_default(tmp_path, monkeypatch,
                                                          field):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SETTING_FILE))
    from_file = cli.RunConfig(
        annotation_file=Path("c/a.csv"), schema_file=Path("c/s.json"),
        audio_dir=Path("c/audio"), output_dir=Path("c/out"), seed=5,
        cost_grid=(0.5, 2.0), bootstrap_replicates=20)
    flag_args, flag_value = SETTING_FLAGS[field]
    assert _resolved(["--config", str(config)]) == from_file
    assert _resolved(["--config", str(config)] + flag_args) == replace(
        from_file, **{field: flag_value})

    config.write_text(json.dumps({k: v for k, v in SETTING_FILE.items() if k != field}))
    default = getattr(cli.RunConfig(), field)
    if field == "audio_dir":  # defaults to the annotation file's directory
        default = Path("c")
    assert getattr(_resolved(["--config", str(config)]), field) == default
    assert getattr(_resolved([]), field) == getattr(cli.RunConfig(), field)
