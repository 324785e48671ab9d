"""Command-line front end: the pipeline stages as subcommands.

Stages communicate exclusively through files under the output directory
(features.csv, folds.csv, ...), so a 35k-utterance corpus can be processed
stage by stage and audited in between.  Every text artifact starts with a
provenance comment (tool version, seed, config hash), and reruns with
identical inputs and seed are byte-identical, from any directory and with
the inputs reached by any path.  partition and train-eval check the fold
plan by one function, partition.fold_sides, so partition writes no
folds.csv that train-eval refuses.

The per-utterance stages (extract, export-spectrograms), like synth, run
their files through audio_io.map_ordered, on a thread per CPU the process
may use.  Results are taken back in cohort order, so every artifact is the
same for any thread count.  train-eval runs in one process: the solver
takes each fold's class pairs together, one batch per cost and one for
the refit, in a few numpy calls per iteration.
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import json
import logging
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, evaluation, svm
from .artifacts import read_json, write_json, write_table
from .audio_io import CORPUS_SAMPLE_RATE_HZ, ClipTooLongError, load_wav, map_ordered
from .corpus import (FILTER_RULES, SchemaConfig, Utterance, filter_cohort,
                     load_annotations)
from .evaluation import (Prediction, PredictionSet, build_report,
                         write_confusion_csv, write_predictions_csv)
from .partition import FOLD_COUNT, build_plan, fold_sides, read_fold_plan, write_fold_plan
from .pitch import (EmptyVoicedSetError, FeatureRecord, contour_stats, extract_f0,
                    read_feature_csv, write_feature_csv)
from .spectral import ClipTooShortError, export_spectrogram, write_tensor
from .svm import nested_select, predict, write_model
from .synth import synth_corpus

log = logging.getLogger("usvpipe")

EXTRACT_FAILURE_TOLERANCE = 0.01  # corrupt-file fraction tolerated per run
# Per-file errors that cost one skip-report row; anything else is a bug and
# stops the stage.
_FILE_ERRORS = (OSError, ValueError)
# OSError numbers of a full output device: every later file would fail alike,
# so they stop the stage.
_DISK_FULL = (errno.ENOSPC, errno.EDQUOT)
# Per-file outcomes that cost a skip-report row but are no failure
_SKIP_REASONS = {EmptyVoicedSetError: "all_unvoiced", ClipTooShortError: "too_short"}


@dataclass
class RunConfig:
    """Resolved paths and seed shared by the pipeline subcommands.  The cost
    grid and the bootstrap replicate count are constants:
    svm.COST_GRID and evaluation.BOOTSTRAP_REPLICATES."""

    annotation_file: Path | None = None
    schema_file: Path | None = None
    audio_dir: Path | None = None
    output_dir: Path = Path("results")
    seed: int = 0

    def config_hash(self) -> str:
        """Hash of what shapes the numbers: the seed, the cost grid and the
        bootstrap replicate count.  No input or output path is hashed."""
        payload = {
            "seed": self.seed,
            "cost_grid": list(svm.COST_GRID),
            "bootstrap_replicates": evaluation.BOOTSTRAP_REPLICATES,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:12]

    def provenance(self) -> str:
        return f"usvpipe {__version__} seed={self.seed} config={self.config_hash()}"


def _seed(value) -> int:
    """An integer from the flag's text or the config file's JSON number."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r}: need an integer")
    return int(value)


# RunConfig field, its flag, the parser of both the flag and the config-file
# value, and the flag's help
_SETTINGS = (
    ("annotation_file", "--annotations", Path, "annotation table path"),
    ("schema_file", "--schema", Path, "schema config path"),
    ("audio_dir", "--audio-dir", Path, "base directory for audio references"),
    ("output_dir", "--out", Path, "output directory (stages share it)"),
    ("seed", "--seed", _seed, "seed recorded in every artifact"),
)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else the config file, else the default.
    A relative path is taken from the working directory when a flag gives
    it and from the config file's directory when the file does."""
    raw = read_json(args.config, "config file") if args.config else {}
    unknown = sorted(set(raw) - {field for field, *_ in _SETTINGS})
    if unknown:
        raise ValueError(f"{args.config}: unknown settings {unknown}")
    cfg = RunConfig()
    for field, flag, parse, _help in _SETTINGS:
        value, base = getattr(args, field), Path()
        if value is None:
            value, base = raw.get(field), Path(args.config or "").parent
        if value is not None:
            try:
                value = parse(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid {field} ({flag}): {exc}") from None
            setattr(cfg, field, base / value if isinstance(value, Path) else value)
    if cfg.audio_dir is None and cfg.annotation_file is not None:
        cfg.audio_dir = cfg.annotation_file.parent
    return cfg


def _per_utterance(cfg: RunConfig, stage: str, fn, skip_report: str):
    """Filter the cohort by its annotations, then load each cohort WAV,
    sorted by id, and call fn(utterance, clip).  A file load_wav refuses as
    over 3 s is counted as too_long and left out of the cohort, with no
    skip row; filter_report.csv is written after the map.
    Missing annotation or schema paths are a ValueError, as is an empty
    cohort, whose error names the rule that dropped the most records.
    Returns fn's result for each file it succeeded on, in id order, and the
    exit status: 1 when more files failed than EXTRACT_FAILURE_TOLERANCE
    allows.
    An exception in _SKIP_REASONS, or a file error, costs one row in
    skip_report; any other, and a full disk, is raised again and the files
    not yet started are dropped.  Each rate other than CORPUS_SAMPLE_RATE_HZ
    is logged once, at INFO, after the map."""
    if cfg.annotation_file is None or cfg.schema_file is None:
        raise ValueError("annotation and schema files are required "
                         "(--annotations/--schema or a config file)")
    schema = SchemaConfig.from_json(cfg.schema_file)
    cohort, counts = filter_cohort(load_annotations(cfg.annotation_file, schema),
                                   schema.emitter_placeholders, cfg.audio_dir)
    cohort.sort(key=lambda u: u.utterance_id)
    rates = []  # list.append is atomic, so the map's threads share it

    def read(utt: Utterance):
        clip = load_wav(utt.audio_path)
        rates.append(clip.sample_rate)
        return fn(utt, clip)

    done, skips, failures = [], [], 0
    for utt, result in zip(cohort, map_ordered(read, cohort)):
        if not isinstance(result, Exception):
            done.append(result)
        elif type(result) is ClipTooLongError:
            counts["too_long"] += 1
            counts["retained"] -= 1
        elif type(result) in _SKIP_REASONS:
            skips.append((utt.utterance_id, _SKIP_REASONS[type(result)]))
        elif (isinstance(result, _FILE_ERRORS)
              and getattr(result, "errno", None) not in _DISK_FULL):
            skips.append((utt.utterance_id, f"error:{type(result).__name__}"))
            log.error("%s: %s", utt.utterance_id, result)
            failures += 1
        else:
            raise result
    write_table(cfg.output_dir / "filter_report.csv", ("rule", "count"),
                counts.items(), cfg.provenance())
    retained = counts["retained"]
    log.info("cohort: %d retained of %d records", retained, counts["total_in"])
    if not retained:
        if not counts["total_in"]:
            raise ValueError(f"{cfg.annotation_file}: the table has no data rows")
        rule = max(FILTER_RULES, key=counts.__getitem__)
        raise ValueError(f"{cfg.annotation_file}: no utterance is left after "
                         f"filtering; rule {rule} dropped {counts[rule]} "
                         f"of {counts['total_in']} records")
    for rate in sorted(set(rates) - {CORPUS_SAMPLE_RATE_HZ}):
        log.info("sample rate %d Hz differs from the expected corpus rate %d Hz",
                 rate, CORPUS_SAMPLE_RATE_HZ)
    write_table(cfg.output_dir / skip_report, ("utterance_id", "reason"), skips,
                cfg.provenance())
    print(f"{stage}: {len(done)} of {retained} utterances done, "
          f"{len(skips)} skipped ({failures} file errors)")
    if failures / retained > EXTRACT_FAILURE_TOLERANCE:
        log.error("%s: %d of %d files failed, above the %.0f%% tolerance",
                  stage, failures, retained, 100 * EXTRACT_FAILURE_TOLERANCE)
        return done, 1
    return done, 0


def cmd_extract(args: argparse.Namespace) -> int:
    """Pitch features for every cohort utterance with at least one voiced
    frame; the loaded clip gives its duration."""
    cfg = _resolve_config(args)

    def extract(utt: Utterance, clip) -> FeatureRecord:
        return FeatureRecord(utt.utterance_id, utt.emitter_id, utt.context,
                             clip.duration_s, contour_stats(extract_f0(clip)))

    records, status = _per_utterance(cfg, "extract", extract, "skip_report.csv")
    write_feature_csv(cfg.output_dir / "features.csv", records,
                      comment=cfg.provenance())
    return status


def cmd_partition(args: argparse.Namespace) -> int:
    """Build the subject-independent 3-fold plan from the feature table, and
    write it only if train-eval could use it (partition.fold_sides)."""
    cfg = _resolve_config(args)
    out = cfg.output_dir
    records = read_feature_csv(out / "features.csv")
    plan = build_plan(records, cfg.seed)
    fold_sides(plan, records, out / "features.csv", out / "folds.csv")
    write_fold_plan(out / "folds.csv", plan, comment=cfg.provenance())
    print(f"partition: {len(records)} utterances over {FOLD_COUNT} folds")
    return 0


def cmd_train_eval(args: argparse.Namespace) -> int:
    """Nested cost selection per fold, pooled predictions, UAR report."""
    cfg = _resolve_config(args)
    features_path = cfg.output_dir / "features.csv"
    folds_path = cfg.output_dir / "folds.csv"
    sides = fold_sides(read_fold_plan(folds_path), read_feature_csv(features_path),
                       features_path, folds_path)
    predictions: list[Prediction] = []
    diagnostics: dict[str, dict] = defaultdict(dict)  # report.json key -> fold -> value
    for fold, (train, val, test) in enumerate(sides):
        dev = train + val
        model, diag = nested_select(np.array([r.features.as_row() for r in dev]),
                                    [r.context for r in dev], np.arange(len(train)),
                                    np.arange(len(train), len(dev)))
        write_model(cfg.output_dir / f"model_fold{fold}.csv", model,
                    comment=cfg.provenance())
        for key, value in diag.items():
            diagnostics[key][str(fold)] = value
        if diag["capped_machines"]:
            log.warning("fold %d: %d machines stopped at the %d-iteration cap "
                        "without meeting the duality gap %g", fold,
                        diag["capped_machines"], svm.SOLVER_MAX_EPOCHS,
                        svm.SOLVER_GAP)

        X_test = np.array([r.features.as_row() for r in test])
        predictions += [Prediction(r.utterance_id, r.context, predicted, fold)
                        for r, predicted in zip(test, predict(model, X_test))]
        log.info("fold %d: cost %g, %d test predictions",
                 fold, diag["chosen_costs"], len(test))

    preds = PredictionSet(predictions)
    report = build_report(preds, seed=cfg.seed)
    write_predictions_csv(cfg.output_dir / "predictions.csv", preds,
                          comment=cfg.provenance())
    provenance = {"tool": f"usvpipe {__version__}", "seed": cfg.seed,
                  "config": cfg.config_hash(), **diagnostics}
    write_json(cfg.output_dir / "report.json", {**report, "provenance": provenance})
    write_confusion_csv(cfg.output_dir / "confusion.csv", report,
                        comment=cfg.provenance())
    low, high = report["ci_95"]
    print(f"train-eval: UAR {report['uar']:.4f} [{low:.4f} - {high:.4f}] "
          f"over {report['n']} predictions")
    return 0


def cmd_export_spectrograms(args: argparse.Namespace) -> int:
    """Fixed-shape linear-magnitude spectrogram tensors for external consumers.

    A file that cannot be read costs one row in export_skip_report.csv and
    is left out of the manifest; one longer than the 3 s pad is too_long.
    """
    cfg = _resolve_config(args)

    def export(utt: Utterance, clip) -> tuple[str, str, int, int]:
        file = f"spectrograms/{utt.utterance_id}.usvt"
        spec = export_spectrogram(clip)
        write_tensor(spec, cfg.output_dir / file)
        return (utt.utterance_id, file, *spec.magnitudes.shape)

    rows, status = _per_utterance(cfg, "export-spectrograms", export,
                                  "export_skip_report.csv")
    write_table(cfg.output_dir / "spectrogram_manifest.csv",
                ("utterance_id", "file", "frames", "bins"), rows, cfg.provenance())
    return status


def cmd_table1(args: argparse.Namespace) -> int:
    """Per-context means of the five voiced-only contour statistics."""
    cfg = _resolve_config(args)
    records = read_feature_csv(cfg.output_dir / "features.csv")
    by_context: dict[str, list] = defaultdict(list)
    for r in records:
        by_context[r.context].append(r.features.as_row()[5:])  # the voiced five
    out_path = cfg.output_dir / "context_f0_stats.csv"
    write_table(out_path, ("context", "n", "mean_hz", "std_hz", "max_hz", "min_hz",
                           "slope_hz_per_s"),
                ([context, len(rows), *np.array(rows).mean(axis=0)]
                 for context, rows in sorted(by_context.items())), cfg.provenance())
    print(f"table1: {len(by_context)} contexts in {out_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """Generate a synthetic corpus plus a ready-to-use run config."""
    out_dir = Path(args.out)
    annotation_path, schema_path = synth_corpus(out_dir, args.emitters,
                                                args.per_class, args.seed)
    config_path = out_dir / "config.json"
    write_json(config_path, {  # paths relative to config.json's directory
        "annotation_file": annotation_path.name,
        "schema_file": schema_path.name,
        "audio_dir": ".",
        "output_dir": "results",
        "seed": args.seed,
    })
    print(f"synth: corpus under {out_dir}, run config at {config_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usvpipe",
        description="Analysis pipeline for ultrasound vocalisation corpora")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    for field, flag, _parse, help_text in _SETTINGS:
        common.add_argument(flag, dest=field, help=help_text)

    sub = parser.add_subparsers(dest="command", required=True)
    # Built per call, not at module level, so each stage binds the module's
    # current cmd_* function (a tracer may have rebound it).
    for name, func, help_text in (
            ("extract", cmd_extract, "pitch features for the filtered cohort"),
            ("partition", cmd_partition, "subject-independent 3-fold plan"),
            ("train-eval", cmd_train_eval,
             "nested SVM selection and pooled evaluation"),
            ("export-spectrograms", cmd_export_spectrograms,
             "fixed-shape spectrogram tensors"),
            ("table1", cmd_table1, "per-context F0 statistics table")):
        sub.add_parser(name, parents=[common], help=help_text).set_defaults(func=func)

    synth = sub.add_parser("synth", help="generate a synthetic test corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--emitters", type=int, default=12)
    synth.add_argument("--per-class", type=int, default=50)
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
