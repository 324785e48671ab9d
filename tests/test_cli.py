import errno
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from usvpipe import audio_io, cli, evaluation, svm, synth
from usvpipe.audio_io import AudioClip, load_wav, write_wav
from usvpipe.cli import main
from usvpipe.spectral import read_tensor
from usvpipe.synth import SEPARABLE_CLASS_SPECS, synth_corpus

from conftest import SIDE_DEFECTS, SIDE_PLAN, SIDE_RECORDS, sine_clip, write_raw_wav


def _synth(root, labels, **kwargs):
    """synth_corpus over the named classes of SEPARABLE_CLASS_SPECS alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "SEPARABLE_CLASS_SPECS",
                   {k: SEPARABLE_CLASS_SPECS[k] for k in labels})
        return synth_corpus(root, **kwargs)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Four well-separated classes, 4 emitters, 10 per class, pushed through
    every stage once; tests only inspect the artifacts."""
    root = tmp_path_factory.mktemp("corpus")
    _synth(root, ("biting", "feeding", "isolation", "sleeping"), n_emitters=4,
           per_class_count=10, seed=21)
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svm, "COST_GRID", (0.1, 1.0))
        mp.setattr(evaluation, "BOOTSTRAP_REPLICATES", 100)
        assert main(["train-eval", "--config", str(config_path)]) == 0
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
    provenance = report["provenance"]
    for key in ("capped_machines", "max_relative_gap", "solver_epochs"):
        assert set(provenance[key]) == set(provenance["chosen_costs"])
    assert all(isinstance(count, int) and count >= 0
               for count in provenance["capped_machines"].values())
    assert all(isinstance(gap, float) and gap >= 0.0
               for gap in provenance["max_relative_gap"].values())
    assert all(isinstance(epochs, int) and epochs > 0
               for epochs in provenance["solver_epochs"].values())


def test_report_re_derives_from_the_predictions(small_corpus, monkeypatch):
    root, _config = small_corpus
    monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 100)  # as the fixture ran
    results = root / "results"
    report = json.loads((results / "report.json").read_text())
    del report["provenance"]
    preds = evaluation.read_predictions_csv(results / "predictions.csv")
    assert evaluation.build_report(preds, seed=21) == report


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
                 "--per-class", "1"]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["seed"] == 3
    wavs = list((out / "wavs").glob("*.wav"))
    assert len(wavs) == 11  # one per context label
    assert main(["extract", "--config", str(out / "config.json")]) == 0


@pytest.mark.parametrize("flags, rate", [
    (["--per-class", "1"], 20_000),  # 10 kHz Nyquist: class 5 falls outside
    (["--per-class", "0"], synth.SYNTH_SAMPLE_RATE),
    (["--per-class", "-2"], synth.SYNTH_SAMPLE_RATE),
], ids=["range-outside-nyquist", "per-class-0", "per-class-negative"])
def test_refused_synth_writes_nothing(tmp_path, monkeypatch, flags, rate):
    monkeypatch.setattr(synth, "SYNTH_SAMPLE_RATE", rate)
    out = tmp_path / "s1"
    out.mkdir()
    assert main(["synth", "--out", str(out), "--seed", "1", "--emitters", "3",
                 *flags]) == 2
    assert list(out.iterdir()) == []


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


def _two_class_corpus(root, per_class):
    annotations, schema = _synth(root, ("biting", "feeding"), n_emitters=3,
                                 per_class_count=per_class, seed=5)
    return ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(root)]


def test_corrupt_wav_below_tolerance_still_succeeds(tmp_path):
    args = _two_class_corpus(tmp_path, per_class=60)
    # corrupt exactly one file out of 120 (< 1 %)
    victim = sorted((tmp_path / "wavs").iterdir())[7]
    victim.write_bytes(b"RIFFgarbage")
    code = main(["extract"] + args + ["--out", str(tmp_path / "out")])
    assert code == 0
    lines = [l for l in (tmp_path / "out" / "features.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 120  # header + 119 rows
    skip = (tmp_path / "out" / "skip_report.csv").read_text()
    assert "error:MalformedWavError" in skip


def test_bad_frame_size_without_annotated_duration_costs_one_row(tmp_path):
    # a header load_wav rejects costs one row, not the run
    args = _two_class_corpus(tmp_path, per_class=60)
    victim = sorted((tmp_path / "wavs").iterdir())[7]
    write_raw_wav(victim, bits=16, block_align=1, payload=b"\x00" * 2000)
    code = main(["extract"] + args + ["--out", str(tmp_path / "out")])
    assert code == 0  # 1 of 120 files is under the 1 % tolerance
    skips = [l for l in (tmp_path / "out" / "skip_report.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert skips == ["utterance_id,reason", f"{victim.stem},error:MalformedWavError"]


def test_unreadable_headers_without_durations_cost_one_row_per_stage(tmp_path):
    args = _two_class_corpus(tmp_path, per_class=100)
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
    _synth(tmp_path, ("biting",), n_emitters=3, per_class_count=20, seed=6)
    for victim in sorted((tmp_path / "wavs").iterdir())[:5]:
        victim.write_bytes(b"RIFFgarbage")
    code = main(["extract", "--annotations", str(tmp_path / "annotations.csv"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--audio-dir", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1


def test_short_and_silent_clips_cost_skip_rows_not_file_errors(tmp_path, capsys,
                                                              caplog):
    args = _two_class_corpus(tmp_path, per_class=3)
    short, silent = sorted((tmp_path / "wavs").iterdir())[1:3]
    write_wav(short, sine_clip(10_000.0, duration_s=0.05))  # half a 100 ms window
    write_wav(silent, AudioClip(samples=np.zeros(25_000), sample_rate=50_000))
    out = tmp_path / "out"
    # a file error would be 1 of 6 files, above the 1 % tolerance: exit 1
    assert main(["extract"] + args + ["--out", str(out)]) == 0
    skips = [l for l in (out / "skip_report.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert skips == ["utterance_id,reason", f"{short.stem},too_short",
                     f"{silent.stem},all_unvoiced"]
    assert "4 of 6 utterances done, 2 skipped (0 file errors)" in capsys.readouterr().out
    assert not [r for r in caplog.records if r.levelname == "ERROR"]
    assert len((out / "features.csv").read_text().splitlines()) == 2 + 4


def test_partition_of_two_emitters_exits_2(tmp_path, caplog):
    from usvpipe.pitch import FeatureRecord, FeatureVector, write_feature_csv
    fv = FeatureVector(*([9000.0] * 10))
    write_feature_csv(tmp_path / "features.csv", [
        FeatureRecord(f"u{i}", f"bat{i % 2}", ("biting", "feeding")[i % 2], 0.5, fv)
        for i in range(6)], comment="stamp")
    assert main(["partition", "--out", str(tmp_path)]) == 2
    assert "2 emitters, need at least 3" in caplog.text
    assert not (tmp_path / "folds.csv").exists()


def test_artifacts_byte_identical_across_reruns(tmp_path, monkeypatch):
    monkeypatch.setattr(svm, "COST_GRID", (0.1,))
    monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 50)
    _synth(tmp_path / "c", ("biting", "feeding", "grooming"), n_emitters=3,
           per_class_count=6, seed=9)
    args = ["--annotations", str(tmp_path / "c" / "annotations.csv"),
            "--schema", str(tmp_path / "c" / "schema.json"),
            "--audio-dir", str(tmp_path / "c"), "--seed", "9"]
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
    annotations, schema = _synth(tmp_path, ("biting", "feeding"), n_emitters=3,
                                 per_class_count=3, seed=4)
    # the first data line starts with "#": a row, since it follows the header
    lines = annotations.read_text().splitlines(keepends=True)
    lines[1] = "#" + lines[1]
    annotations.write_text("".join(lines))
    out = tmp_path / "out"
    args = ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(tmp_path), "--out", str(out)]
    assert main(["extract"] + args) == 0
    assert main(["partition"] + args) == 0
    plan = read_fold_plan(out / "folds.csv")
    assert sorted(plan) == ["#u000000"] + [f"u{i:06d}" for i in range(1, 6)]


def _three_class_corpus(root, per_class=4, seed=9):
    annotations, schema = _synth(root, ("biting", "feeding", "grooming"), n_emitters=3,
                                 per_class_count=per_class, seed=seed)
    return ["--annotations", str(annotations), "--schema", str(schema),
            "--audio-dir", str(root)]


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(audio_io, "_worker_count",
                        lambda items: max(1, min(workers, items)))


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(audio_io.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert [audio_io._worker_count(n) for n in (0, 1, 2, 3, 50)] == [1, 1, 2, 3, 3]


def test_ordered_map_keeps_order_and_returns_errors(monkeypatch):
    _use_workers(monkeypatch, 2)

    def slow_for_early_items(i):
        time.sleep(0.02 * (5 - i))  # later items finish first
        if i == 2:
            raise ValueError("item 2")
        return i * 10

    results = list(audio_io.map_ordered(slow_for_early_items, list(range(5))))
    assert [r for r in results if not isinstance(r, Exception)] == [0, 10, 30, 40]
    assert isinstance(results[2], ValueError) and str(results[2]) == "item 2"


def test_artifacts_identical_for_one_and_two_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 50)
    args = _three_class_corpus(tmp_path / "c")
    outputs = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        for cmd in ("extract", "export-spectrograms", "partition", "train-eval",
                    "table1"):
            assert main([cmd] + args + ["--out", str(out)]) == 0
        outputs.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    # 13 tables, report.json and three models, plus one tensor per utterance
    assert len(outputs[0]) == 13 + 12
    assert outputs[0] == outputs[1]


def test_solver_error_stops_train_eval_before_the_report(tmp_path, monkeypatch,
                                                         caplog):
    args = _three_class_corpus(tmp_path / "c") + ["--out", str(tmp_path / "out")]
    for cmd in ("extract", "partition"):
        assert main([cmd] + args) == 0

    def boom(*_args):
        raise ValueError("boom")

    monkeypatch.setattr(svm, "_solve_batch", boom)
    assert main(["train-eval"] + args) == 2
    assert "boom" in caplog.text
    assert not (tmp_path / "out" / "report.json").exists()


def test_capped_machines_are_counted_and_logged(tmp_path, monkeypatch, caplog):
    """One interior-point iteration meets no machine's duality gap."""
    args = _three_class_corpus(tmp_path / "c") + ["--out", str(tmp_path / "out")]
    for cmd in ("extract", "partition"):
        assert main([cmd] + args) == 0
    monkeypatch.setattr(svm, "COST_GRID", (1.0,))
    monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 10)
    monkeypatch.setattr(svm, "SOLVER_MAX_EPOCHS", 1)
    assert main(["train-eval"] + args) == 0
    provenance = json.loads((tmp_path / "out" / "report.json").read_text())[
        "provenance"]
    # three pairs at the one cost, then three refits, in each fold
    assert provenance["capped_machines"] == {"0": 6, "1": 6, "2": 6}
    assert provenance["solver_epochs"] == {"0": 6, "1": 6, "2": 6}
    assert all(gap > svm.SOLVER_GAP
               for gap in provenance["max_relative_gap"].values())
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"
                and "iteration cap" in r.getMessage()]
    assert warnings == [f"fold {fold}: 6 machines stopped at the 1-iteration cap "
                        f"without meeting the duality gap 0.0001"
                        for fold in range(3)]


def test_rate_warning_logged_once_with_two_workers(tmp_path, monkeypatch, caplog):
    """Each stage logs the notice once, in the same process too: load_wav
    keeps no record of the rates it has read."""
    args = _three_class_corpus(tmp_path / "c", per_class=6)
    _use_workers(monkeypatch, 2)
    caplog.set_level(logging.INFO)
    for stage in ("extract", "export-spectrograms", "extract"):
        caplog.clear()
        assert main([stage] + args + ["--out", str(tmp_path / "out")]) == 0
        notices = [(r.levelname, r.getMessage()) for r in caplog.records
                   if "differs from the expected corpus rate" in r.getMessage()]
        assert notices == [("INFO", "sample rate 50000 Hz differs from the "
                                    "expected corpus rate 250000 Hz")]
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_rate_notices_hold_with_more_workers_than_cores(tmp_path, monkeypatch, caplog):
    """The map's threads append every rate to one list: with 8 workers and a
    short switch interval, each of the two rates is still logged once."""
    args = _three_class_corpus(tmp_path / "c")
    for wav in sorted((tmp_path / "c" / "wavs").iterdir())[::3]:
        write_wav(wav, sine_clip(9000, duration_s=0.5, sample_rate=100_000))
    _use_workers(monkeypatch, 8)
    caplog.set_level(logging.INFO)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(["extract"] + args + ["--out", str(tmp_path / "out")]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert [m for m in caplog.messages if "differs from the expected" in m] == [
        f"sample rate {rate} Hz differs from the expected corpus rate 250000 Hz"
        for rate in (50_000, 100_000)]


def test_each_cohort_wav_is_parsed_once_per_stage(tmp_path, monkeypatch):
    args = _three_class_corpus(tmp_path / "c")
    wavs = sorted((tmp_path / "c" / "wavs").iterdir())
    parsed = []
    header = audio_io._wav_header
    monkeypatch.setattr(audio_io, "_wav_header",
                        lambda fh, path: parsed.append(path) or header(fh, path))
    for stage in ("extract", "export-spectrograms"):
        parsed.clear()
        assert main([stage] + args + ["--out", str(tmp_path / "out")]) == 0
        assert sorted(parsed) == wavs, stage


def test_over_long_clip_is_dropped_by_the_filter(tmp_path, caplog):
    """load_wav refuses a file over 3 s, and each stage counts it as
    too_long in filter_report.csv; when every clip is over 3 s the cohort
    is empty after the map."""
    args = _three_class_corpus(tmp_path / "c")
    voiced = sine_clip(9000, duration_s=3.5, sample_rate=50_000)
    for wav in (tmp_path / "c" / "wavs").iterdir():
        write_wav(wav, voiced)
    for stage in ("extract", "export-spectrograms"):
        out = tmp_path / stage
        assert main([stage] + args + ["--out", str(out)]) == 2
        assert (f"{args[1]}: no utterance is left after filtering; rule too_long "
                "dropped 12 of 12 records") in caplog.messages
        assert [p.name for p in out.iterdir()] == ["filter_report.csv"]
        report = (out / "filter_report.csv").read_text().splitlines()[1:]
        assert "too_long,12" in report and "retained,0" in report


def test_export_skips_an_over_long_clip(tmp_path):
    args = _three_class_corpus(tmp_path / "c")
    victim = sorted((tmp_path / "c" / "wavs").iterdir())[4]
    write_wav(victim, AudioClip(samples=np.zeros(175_000), sample_rate=50_000))
    out = tmp_path / "out"
    assert main(["export-spectrograms"] + args + ["--out", str(out)]) == 0
    report = (out / "filter_report.csv").read_text().splitlines()[1:]
    assert "too_long,1" in report and "retained,11" in report
    skips = [l for l in (out / "export_skip_report.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert skips == ["utterance_id,reason"]  # no skip row, no file error
    manifest = [l.split(",") for l in
                (out / "spectrogram_manifest.csv").read_text().splitlines()[2:]]
    assert len(manifest) == 11
    assert victim.stem not in {row[0] for row in manifest}
    assert not (out / "spectrograms" / f"{victim.stem}.usvt").exists()
    for uid, rel, frames, bins in manifest:
        assert read_tensor(out / rel).shape == (int(frames), int(bins))


def test_extract_and_export_skip_the_same_over_long_clip(tmp_path):
    args = _three_class_corpus(tmp_path / "c")
    # a voiced 3.5 s tone
    victim = sorted((tmp_path / "c" / "wavs").iterdir())[4]
    write_wav(victim, sine_clip(9000, duration_s=3.5, sample_rate=50_000))
    out = tmp_path / "out"
    for stage, skip_report in (("extract", "skip_report.csv"),
                               ("export-spectrograms", "export_skip_report.csv")):
        assert main([stage] + args + ["--out", str(out)]) == 0  # a file error is 1/12
        report = (out / "filter_report.csv").read_text().splitlines()[1:]
        assert "too_long,1" in report and "retained,11" in report
        assert (out / skip_report).read_text().splitlines()[1:] == [
            "utterance_id,reason"]
    featured = [l.split(",")[0] for l in
                (out / "features.csv").read_text().splitlines()[2:]]
    exported = [l.split(",")[0] for l in
                (out / "spectrogram_manifest.csv").read_text().splitlines()[2:]]
    assert len(featured) == 11 and featured == exported
    assert victim.stem not in featured


@pytest.mark.parametrize("given", [(), ("--annotations",), ("--schema",)])
def test_per_file_stage_without_annotations_or_schema_exits_2(tmp_path, caplog, given):
    args = _three_class_corpus(tmp_path / "c")
    kept = [arg for flag, value in zip(args[::2], args[1::2])
            if flag in given + ("--audio-dir",) for arg in (flag, value)]
    out = tmp_path / "out"
    for stage in ("extract", "export-spectrograms"):
        assert main([stage, *kept, "--out", str(out)]) == 2
        assert caplog.messages[-1] == ("annotation and schema files are required "
                                       "(--annotations/--schema or a config file)")
    assert not out.exists()


def test_float_wav_with_a_sample_that_is_not_finite_is_a_file_error(tmp_path, caplog,
                                                                      recwarn):
    """A NaN or infinite float sample costs each stage one
    error:MalformedWavError row: no features, no tensor, no manifest row and
    no numpy warning."""
    args = _three_class_corpus(tmp_path / "c")
    victims = sorted((tmp_path / "c" / "wavs").iterdir())[3:5]
    for victim, bad in zip(victims, (np.nan, np.inf)):
        clip = load_wav(victim)
        samples = (clip.samples * clip.scale).astype("<f4")
        samples[len(samples) // 2] = bad
        write_raw_wav(victim, fmt_tag=3, bits=32, payload=samples.tobytes())
    out = tmp_path / "out"
    for stage, skip_report in (("extract", "skip_report.csv"),
                               ("export-spectrograms", "export_skip_report.csv")):
        assert main([stage] + args + ["--out", str(out)]) == 1  # 2/12 > 1 %
        assert (out / skip_report).read_text().splitlines()[1:] == [
            "utterance_id,reason"] + [f"{v.stem},error:MalformedWavError"
                                      for v in victims]
    for victim in victims:
        assert f"{victim}: NaN or infinite float sample" in caplog.text
        assert not (out / "spectrograms" / f"{victim.stem}.usvt").exists()
    featured = [l.split(",")[0] for l in
                (out / "features.csv").read_text().splitlines()[2:]]
    exported = [l.split(",")[0] for l in
                (out / "spectrogram_manifest.csv").read_text().splitlines()[2:]]
    assert len(featured) == 10 and featured == exported
    assert not {v.stem for v in victims} & set(exported)
    assert len(list((out / "spectrograms").iterdir())) == 10
    assert not [r for r in caplog.records if r.levelname == "WARNING"]
    assert not recwarn.list


def test_filter_report_counts_every_rule_in_order(tmp_path):
    args = _three_class_corpus(tmp_path / "c")
    annotations, schema = tmp_path / "c" / "annotations.csv", tmp_path / "c" / "schema.json"
    raw = json.loads(schema.read_text())
    schema.write_text(json.dumps({**raw, "context_map": {**raw["context_map"],
                                                         "landing": "landing"}}))
    write_wav(tmp_path / "c" / "long.wav", sine_clip(9000, duration_s=3.5))
    with annotations.open("a") as fh:
        fh.write("x1,bat00,chirping,wavs/u000000.wav\n"     # unmapped context
                 "x2,bat00,landing,wavs/u000000.wav\n"
                 "x3,unknown-emitter,biting,wavs/u000000.wav\n"
                 "x4,,biting,wavs/u000000.wav\n"
                 "x5,bat01,feeding,long.wav\n")
    out = tmp_path / "out"
    assert main(["extract"] + args + ["--seed", "4", "--out", str(out)]) == 0
    stamp = cli.RunConfig(annotation_file=annotations, schema_file=schema,
                          audio_dir=tmp_path / "c", seed=4).provenance()
    assert (out / "filter_report.csv").read_text().splitlines() == [
        f"# {stamp}", "rule,count", "total_in,17", "unknown_context,1", "landing,1",
        "unidentified_emitter,2", "too_long,1", "retained,12"]


@pytest.mark.parametrize("stage", ["extract", "export-spectrograms"])
@pytest.mark.parametrize("table, complaint, counts", [
    pytest.param("unmapped", "no utterance is left after filtering; rule "
                 "unknown_context dropped 12 of 12 records",
                 ["total_in,12", "unknown_context,12", "retained,0"], id="unmapped"),
    pytest.param("header_only", "the table has no data rows",
                 ["total_in,0", "retained,0"], id="header_only")])
def test_empty_cohort_exits_2_after_the_filter_report(tmp_path, caplog, stage, table,
                                                      complaint, counts):
    args = _three_class_corpus(tmp_path / "c")
    annotations, schema = tmp_path / "c" / "annotations.csv", tmp_path / "c" / "schema.json"
    if table == "unmapped":
        schema.write_text(json.dumps({**json.loads(schema.read_text()),
                                      "context_map": {}}))
    else:
        annotations.write_text(annotations.read_text().splitlines()[0] + "\n")
    out = tmp_path / "out"
    assert main([stage] + args + ["--out", str(out)]) == 2
    assert f"{annotations}: {complaint}" in caplog.text
    report = (out / "filter_report.csv").read_text().splitlines()
    assert set(counts) <= set(report)
    # no feature table, skip report, manifest or tensor
    assert [p.name for p in out.iterdir()] == ["filter_report.csv"]


def test_start_end_in_samples_keep_the_whole_corpus(tmp_path):
    corpus_dir = tmp_path / "c"
    assert main(["synth", "--out", str(corpus_dir), "--emitters", "12",
                 "--per-class", "3", "--seed", "7"]) == 0
    config = ["--config", str(corpus_dir / "config.json")]
    assert main(["extract"] + config) == 0
    # the same table with start/end columns giving each call's bounds in
    # samples, as in a release cut from longer recordings
    annotations, schema = corpus_dir / "annotations.csv", corpus_dir / "schema.json"
    rows = [line.split(",")[:4] for line in annotations.read_text().splitlines()]
    table = [",".join(rows[0] + ["start", "end"])]
    for i, row in enumerate(rows[1:]):
        start = 1_000_000 * i
        end = start + load_wav(corpus_dir / row[3]).samples.size
        table.append(",".join(row + [str(start), str(end)]))
    annotations.write_text("\n".join(table) + "\n")
    schema.write_text(json.dumps({**json.loads(schema.read_text()), "columns": {
        "id": "utterance_id", "emitter": "emitter_id", "context": "context_code",
        "file": "file", "start": "start", "end": "end"}}))
    out = tmp_path / "samples"
    assert main(["extract"] + config + ["--out", str(out)]) == 0
    assert "retained,33" in (out / "filter_report.csv").read_text().splitlines()
    assert ((out / "features.csv").read_bytes()
            == (corpus_dir / "results" / "features.csv").read_bytes())


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
    ({"seed": 3, "cost_gird": [0.1]}, "unknown settings ['cost_gird']"),
    ({"cost_grid": [0.1, 1]}, "unknown settings ['cost_grid']"),
    ({"bootstrap_replicates": 10}, "unknown settings ['bootstrap_replicates']"),
    pytest.param(b'{"seed": 3,\n', "not UTF-8 JSON: Expecting property name",
                 id="truncated"),
    pytest.param(b'{"audio_dir": "caf\xe9"}',
                 "not UTF-8 JSON: 'utf-8' codec can't decode", id="latin1")])
def test_config_file_must_be_an_object_of_known_settings(tmp_path, caplog,
                                                         payload, message):
    config = tmp_path / "config.json"
    config.write_bytes(payload if isinstance(payload, bytes)
                       else json.dumps(payload).encode())
    assert main(["train-eval", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{config}: {message}" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag_or_file", [
    ["--seed", "1.5"], {"seed": 1.5}, {"seed": True}])
def test_invalid_setting_exits_2_naming_it(small_corpus, tmp_path, caplog,
                                          flag_or_file):
    root, _config = small_corpus
    for name in ("features.csv", "folds.csv"):  # train-eval's inputs
        (tmp_path / name).write_bytes((root / "results" / name).read_bytes())
    argv = ["train-eval", "--out", str(tmp_path)]
    if isinstance(flag_or_file, dict):
        (tmp_path / "config.json").write_text(json.dumps(flag_or_file))
        argv += ["--config", str(tmp_path / "config.json")]
    else:
        argv += flag_or_file
    assert main(argv) == 2
    assert "invalid seed (--seed)" in caplog.text
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flag", ["--grid", "--replicates"])
def test_removed_grid_and_replicate_flags_exit_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["train-eval", "--out", str(tmp_path), flag, "10"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err


def _set_role(row: str, role: str) -> str:
    return row.rsplit(",", 1)[0] + f",{role}\n"


def _test_once_more(rows: list[str]) -> list[str]:
    """The first utterance's first train/val row made a second test row."""
    i = next(i for i, row in enumerate(rows[:3]) if not row.endswith(",test\n"))
    return rows[:i] + [_set_role(rows[i], "test")] + rows[i + 1:]


# (table edited, edit of its data rows, what the error names); the first
# utterance, {uid}, is the stale one
STALE_INPUTS = {
    "featured_utterance_not_in_folds": ("folds.csv", lambda rows: rows[3:],
                                        "utterance {uid} "),
    "fold_row_without_features": ("features.csv", lambda rows: rows[1:],
                                  "utterance {uid} "),
    "one_fold_row_missing": ("folds.csv", lambda rows: rows[1:], "utterance {uid} "),
    "tested_in_two_folds": ("folds.csv", _test_once_more, "utterance {uid} "),
    "unknown_role": ("folds.csv", lambda rows: [_set_role(rows[0], "holdout")] + rows[1:],
                     "folds.csv:3: role 'holdout' is not one of test, train, val"),
}


@pytest.mark.parametrize("case", sorted(STALE_INPUTS))
def test_train_eval_refuses_features_and_folds_that_disagree(small_corpus, tmp_path,
                                                             caplog, case):
    root, _config = small_corpus
    name, edit, named = STALE_INPUTS[case]
    for table in ("features.csv", "folds.csv"):
        (tmp_path / table).write_bytes((root / "results" / table).read_bytes())
    lines = (tmp_path / name).read_text().splitlines(keepends=True)
    (tmp_path / name).write_text("".join(lines[:2] + edit(lines[2:])))  # stamp, header
    stale_id = lines[2].split(",")[0]
    assert main(["train-eval", "--out", str(tmp_path)]) == 2
    assert named.format(uid=stale_id) in caplog.text
    assert "folds.csv" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv", "folds.csv"]


def test_a_few_utterances_per_emitter_run_through_table1_with_every_fold_tested(
        tmp_path):
    # 33 utterances over 12 emitters: the marginal score alone would put
    # every emitter in one group
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--emitters", "12",
                 "--per-class", "3", "--seed", "7"]) == 0
    config = ["--config", str(corpus / "config.json")]
    for stage in ("extract", "partition", "train-eval", "table1"):
        assert main([stage] + config) == 0, stage
    from usvpipe.partition import read_fold_plan
    plan = read_fold_plan(corpus / "results" / "folds.csv")
    tested = [sum(roles[fold] == "test" for roles in plan.values()) for fold in range(3)]
    assert min(tested) >= 1 and sum(tested) == 33


def _train_eval_refuses(tmp_path, caplog, case):
    """train-eval on SIDE_DEFECTS' case exits 2, logs the refusal and writes
    nothing."""
    from usvpipe.partition import write_fold_plan
    from usvpipe.pitch import write_feature_csv
    edit, complaint = SIDE_DEFECTS[case]
    records, plan = edit(SIDE_RECORDS, SIDE_PLAN)
    write_feature_csv(tmp_path / "features.csv", records, comment="stamp")
    write_fold_plan(tmp_path / "folds.csv", plan, comment="stamp")
    assert main(["train-eval", "--out", str(tmp_path)]) == 2
    assert complaint.format(features=tmp_path / "features.csv",
                            folds=tmp_path / "folds.csv") in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv", "folds.csv"]


def test_train_eval_refuses_folds_with_an_empty_test_fold(tmp_path, caplog):
    _train_eval_refuses(tmp_path, caplog, "empty_test_fold")


def test_train_eval_refuses_a_development_set_of_one_context(tmp_path, caplog):
    _train_eval_refuses(tmp_path, caplog, "one_context")


def test_train_eval_refuses_a_fold_without_val_utterances(tmp_path, caplog):
    _train_eval_refuses(tmp_path, caplog, "no_val")


def test_train_eval_refuses_a_val_context_missing_from_train(tmp_path, caplog):
    _train_eval_refuses(tmp_path, caplog, "val_context_not_in_train")


def test_train_eval_refuses_an_emitter_on_both_sides_of_a_fold(tmp_path, caplog):
    _train_eval_refuses(tmp_path, caplog, "emitter_on_both_sides")


def test_partition_refuses_a_plan_without_val_utterances(tmp_path, caplog):
    # each context has one utterance and 30 % of one rounds to 0, so no
    # development set holds a val utterance: train-eval would refuse the plan
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--emitters", "3",
                 "--per-class", "1", "--seed", "7"]) == 0
    config = ["--config", str(corpus / "config.json")]
    assert main(["extract"] + config) == 0
    assert main(["partition"] + config) == 2
    folds = corpus / "results" / "folds.csv"
    assert (f"{folds}: the development set of fold 0 holds no val utterance;"
            in caplog.text)
    assert not folds.exists()


def test_schema_without_a_file_column_exits_2_naming_it(tmp_path, caplog):
    args = _three_class_corpus(tmp_path / "c")
    schema = tmp_path / "c" / "schema.json"
    raw = json.loads(schema.read_text())
    del raw["columns"]["file"]
    schema.write_text(json.dumps(raw))
    assert main(["extract"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert f"{schema}: schema lacks a 'file' column mapping" in caplog.text


@pytest.mark.parametrize("key, value, complaint", [
    (None, ["x"], "a schema must hold a JSON object"),
    pytest.param(None, b'{"delimiter": ",",\n', "not UTF-8 JSON: Expecting property name",
                 id="truncated"),
    ("delimiter", ";;", "schema key 'delimiter' must be a single character"),
    ("emitter_placeholders", "unknown",
     "schema key 'emitter_placeholders' must be a list"),
])
def test_schema_value_of_the_wrong_type_exits_2_naming_it(tmp_path, caplog, key, value,
                                                         complaint):
    args = _three_class_corpus(tmp_path / "c")
    schema = tmp_path / "c" / "schema.json"
    raw = value if key is None else {**json.loads(schema.read_text()), key: value}
    schema.write_bytes(raw if isinstance(raw, bytes) else json.dumps(raw).encode())
    out = tmp_path / "out"
    assert main(["extract"] + args + ["--out", str(out)]) == 2
    assert f"{schema}: {complaint}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("stage", ["extract", "export-spectrograms"])
@pytest.mark.parametrize("second_id, complaint", [
    ("u000000", "utterance id 'u000000' is already used on line 2"),
    ("../../escaped", "utterance id '../../escaped' is not a plain file name"),
])
def test_id_that_cannot_key_an_artifact_exits_2_writing_nothing(tmp_path, caplog, stage,
                                                               second_id, complaint):
    args = _three_class_corpus(tmp_path / "c")
    annotations = tmp_path / "c" / "annotations.csv"
    lines = annotations.read_text().splitlines(keepends=True)
    lines[2] = second_id + lines[2][lines[2].index(","):]  # a different WAV
    annotations.write_text("".join(lines))
    assert main([stage] + args + ["--out", str(tmp_path / "out")]) == 2
    assert f"{annotations}:3: {complaint}" in caplog.text
    assert sorted(tmp_path.iterdir()) == [tmp_path / "c"]  # not even a directory


def test_partition_needs_only_the_feature_table(small_corpus, tmp_path):
    root, _config = small_corpus
    fixture = root / "results"
    (tmp_path / "features.csv").write_bytes((fixture / "features.csv").read_bytes())
    assert main(["partition", "--out", str(tmp_path), "--seed", "21"]) == 0
    stamp, *plan = (tmp_path / "folds.csv").read_text().splitlines()
    fixture_stamp, *fixture_plan = (fixture / "folds.csv").read_text().splitlines()
    assert stamp.startswith("# ") and fixture_stamp.startswith("# ")
    assert plan == fixture_plan


@pytest.mark.parametrize("stage", ["partition", "train-eval", "table1"])
def test_repeated_feature_row_exits_2_naming_it(small_corpus, tmp_path, caplog, stage):
    root, _config = small_corpus
    for table in ("features.csv", "folds.csv"):
        (tmp_path / table).write_bytes((root / "results" / table).read_bytes())
    lines = (tmp_path / "features.csv").read_text().splitlines(keepends=True)
    (tmp_path / "features.csv").write_text("".join(lines + lines[2:3]))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    repeated_id = lines[2].split(",")[0]
    assert main([stage, "--out", str(tmp_path)]) == 2
    assert (f"features.csv:{len(lines) + 1}: utterance_id '{repeated_id}' is already "
            "used on line 3") in caplog.text
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# case: (column index, text written there in the first data row); the
# reader's own table in test_pitch.py holds every refused cell
BAD_FEATURE_FIELDS = {
    "nan_feature": (4, "nan"),
    "infinite_duration": (3, "inf"),
    "negative_duration": (3, "-0.5"),
    "non_numeric_feature": (13, "high"),
    "unknown_context": (2, "chirping"),
}


@pytest.mark.parametrize("case", sorted(BAD_FEATURE_FIELDS))
@pytest.mark.parametrize("stage", ["partition", "train-eval", "table1"])
def test_bad_feature_field_exits_2_naming_it(small_corpus, tmp_path, caplog, stage,
                                             case):
    root, _config = small_corpus
    for table in ("features.csv", "folds.csv"):
        (tmp_path / table).write_bytes((root / "results" / table).read_bytes())
    lines = (tmp_path / "features.csv").read_text().splitlines(keepends=True)
    column, text = BAD_FEATURE_FIELDS[case]
    fields = lines[2].rstrip("\n").split(",")
    fields[column] = text
    (tmp_path / "features.csv").write_text(
        "".join(lines[:2] + [",".join(fields) + "\n"] + lines[3:]))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([stage, "--out", str(tmp_path)]) == 2
    name = lines[1].rstrip("\n").split(",")[column]
    assert f"features.csv:3: {name} '{text}' " in caplog.text
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


SETTING_FLAGS = {  # RunConfig field: (flag arguments, value from the flag)
    "annotation_file": (["--annotations", "f/a.csv"], Path("f/a.csv")),
    "schema_file": (["--schema", "f/s.json"], Path("f/s.json")),
    "audio_dir": (["--audio-dir", "f/audio"], Path("f/audio")),
    "output_dir": (["--out", "f/out"], Path("f/out")),
    "seed": (["--seed", "9"], 9),
}
SETTING_FILE = {"annotation_file": "c/a.csv", "schema_file": "c/s.json",
                "audio_dir": "c/audio", "output_dir": "c/out", "seed": 5}


def _resolved(argv):
    return cli._resolve_config(cli.build_parser().parse_args(["extract"] + argv))


@pytest.mark.parametrize("field", sorted(SETTING_FLAGS))
def test_setting_takes_flag_then_config_file_then_default(tmp_path, monkeypatch,
                                                          field):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SETTING_FILE))
    from_file = cli.RunConfig(  # file paths are under the config's directory
        annotation_file=tmp_path / "c/a.csv", schema_file=tmp_path / "c/s.json",
        audio_dir=tmp_path / "c/audio", output_dir=tmp_path / "c/out", seed=5)
    flag_args, flag_value = SETTING_FLAGS[field]
    assert _resolved(["--config", str(config)]) == from_file
    assert _resolved(["--config", str(config)] + flag_args) == replace(
        from_file, **{field: flag_value})

    config.write_text(json.dumps({k: v for k, v in SETTING_FILE.items() if k != field}))
    default = getattr(cli.RunConfig(), field)
    if field == "audio_dir":  # defaults to the annotation file's directory
        default = tmp_path / "c"
    assert getattr(_resolved(["--config", str(config)]), field) == default
    assert getattr(_resolved([]), field) == getattr(cli.RunConfig(), field)


def test_config_file_paths_are_relative_to_its_directory(tmp_path, monkeypatch):
    """The five stages run as the quick start shows, and again from another
    directory with the absolute config path and another --out, give
    byte-identical trees, stamps, report.json and tensors included: the
    config hash covers no path."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "c", "--seed", "3", "--emitters", "3",
                 "--per-class", "2"]) == 0
    assert json.loads((tmp_path / "c" / "config.json").read_text()) == {
        "annotation_file": "annotations.csv", "schema_file": "schema.json",
        "audio_dir": ".", "output_dir": "results", "seed": 3}
    # run as the quick start shows, the paths resolve to the same strings
    cfg = _resolved(["--config", "c/config.json"])
    assert [str(cfg.annotation_file), str(cfg.audio_dir), str(cfg.output_dir)] == [
        "c/annotations.csv", "c", "c/results"]
    stages = ("extract", "partition", "train-eval", "table1", "export-spectrograms")
    for stage in stages:
        assert main([stage, "--config", "c/config.json"]) == 0
    ran_in_c = tmp_path / "c" / "results"
    features = (ran_in_c / "features.csv").read_bytes()
    (ran_in_c / "features.csv").unlink()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    config = str(tmp_path / "c" / "config.json")
    assert main(["extract", "--config", config]) == 0  # into c/results again
    assert (ran_in_c / "features.csv").read_bytes() == features
    for stage in stages:
        assert main([stage, "--config", config, "--out", "here"]) == 0  # a flag
    here = tmp_path / "elsewhere" / "here"

    def files(base):
        return sorted(path.relative_to(base) for path in base.rglob("*")
                      if path.is_file())

    assert files(here) == files(ran_in_c)
    assert len([name for name in files(here) if name.suffix == ".usvt"]) == 22
    assert [name for name in files(here)
            if (here / name).read_bytes() != (ran_in_c / name).read_bytes()] == []
