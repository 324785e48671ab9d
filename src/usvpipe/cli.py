"""Command-line front end: the pipeline stages as subcommands.

Stages communicate exclusively through files under the output directory
(features.csv, folds.csv, ...), so a 35k-utterance corpus can be processed
stage by stage and audited in between.  Every text artifact starts with a
provenance comment (tool version, seed, config hash) and reruns with
identical inputs and seed are byte-identical.

The per-utterance stages (extract, export-spectrograms) run their files on
a thread per CPU the process may use: numpy's FFT and array loops release
the GIL.  Results are taken back in cohort order, so every artifact is the
same for any thread count.
"""
from __future__ import annotations

import argparse
import errno
import hashlib
import json
import logging
import math
import os
import sys
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import write_atomic, write_table
from .audio_io import load_wav
from .corpus import (CONTEXT_LABELS, SchemaConfig, Utterance, filter_cohort,
                     load_annotations, write_filter_report)
from .evaluation import (Prediction, PredictionSet, build_report,
                         report_to_json, write_confusion_csv,
                         write_predictions_csv)
from .exceptions import ClipTooShortError, EmptyVoicedSetError, PipelineError
from .partition import FOLD_COUNT, build_plan, read_fold_plan, write_fold_plan
from .pitch import (FeatureRecord, contour_stats, extract_f0,
                    read_feature_csv, write_feature_csv)
from .spectral import export_spectrogram, write_tensor
from .svm import (COST_GRID, SOLVER_GAP, SOLVER_MAX_EPOCHS, nested_select,
                  predict, write_model)
from .synth import synth_corpus

log = logging.getLogger("usvpipe")

EXTRACT_FAILURE_TOLERANCE = 0.01  # corrupt-file fraction tolerated per run
# Per-file errors that cost one skip-report row; anything else is a bug and
# stops the stage.
_FILE_ERRORS = (PipelineError, OSError, ValueError)
# OSError numbers of a full output device: every later file would fail alike,
# so they stop the stage.
_DISK_FULL = (errno.ENOSPC, errno.EDQUOT)
# Per-file outcomes that cost a skip-report row but are no failure
_SKIP_REASONS = {EmptyVoicedSetError: "all_unvoiced", ClipTooShortError: "too_short"}


@dataclass
class RunConfig:
    """Resolved paths and knobs shared by the pipeline subcommands."""

    annotation_file: Path | None = None
    schema_file: Path | None = None
    audio_dir: Path | None = None
    output_dir: Path = Path("results")
    seed: int = 0
    cost_grid: tuple[float, ...] = COST_GRID
    bootstrap_replicates: int = 1000

    def config_hash(self) -> str:
        """Hash of everything that shapes results (the output location doesn't)."""
        payload = {
            "annotation_file": str(self.annotation_file),
            "schema_file": str(self.schema_file),
            "audio_dir": str(self.audio_dir),
            "seed": self.seed,
            "cost_grid": list(self.cost_grid),
            "bootstrap_replicates": self.bootstrap_replicates,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:12]

    def provenance(self) -> str:
        return f"usvpipe {__version__} seed={self.seed} config={self.config_hash()}"


def _cost_grid(value) -> tuple[float, ...]:
    """A comma-separated string (flag) or a list (config file) of costs."""
    grid = tuple(float(v) for v in (value.split(",") if isinstance(value, str)
                                    else value))
    if not grid or not all(math.isfinite(c) and c > 0 for c in grid):
        raise ValueError(f"{value!r}: need one or more finite positive costs")
    return grid


def _replicate_count(value) -> int:
    count = int(value)
    if count < 1:
        raise ValueError(f"{value!r}: need at least 1")
    return count


# RunConfig field, the flag's argparse dest, and the parser of both the flag
# and the config-file value
_SETTINGS = (
    ("annotation_file", "annotations", Path),
    ("schema_file", "schema", Path),
    ("audio_dir", "audio_dir", Path),
    ("output_dir", "out", Path),
    ("seed", "seed", int),
    ("cost_grid", "grid", _cost_grid),
    ("bootstrap_replicates", "replicates", _replicate_count),
)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else the config file, else the default."""
    config = getattr(args, "config", None)
    raw = json.loads(Path(config).read_text()) if config else {}
    if not isinstance(raw, dict):
        raise ValueError(f"{config}: a config file must hold a JSON object")
    unknown = sorted(set(raw) - {field for field, _, _ in _SETTINGS})
    if unknown:
        raise ValueError(f"{config}: unknown settings {unknown}")
    cfg = RunConfig()
    for field, dest, parse in _SETTINGS:
        value = getattr(args, dest, None)
        if value is None:
            value = raw.get(field)
        if value is not None:
            try:
                setattr(cfg, field, parse(value))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid {field} (--{dest.replace('_', '-')}): "
                                 f"{exc}") from None
    if cfg.audio_dir is None and cfg.annotation_file is not None:
        cfg.audio_dir = cfg.annotation_file.parent
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg


def _load_cohort(cfg: RunConfig) -> list[Utterance]:
    if cfg.annotation_file is None or cfg.schema_file is None:
        raise PipelineError("annotation and schema files are required "
                            "(--annotations/--schema or a config file)")
    schema = SchemaConfig.from_json(cfg.schema_file)
    records = load_annotations(cfg.annotation_file, schema)
    cohort, report = filter_cohort(records, schema.emitter_placeholders,
                                   audio_root=cfg.audio_dir)
    write_filter_report(cfg.output_dir / "filter_report.csv", report,
                        comment=cfg.provenance())
    log.info("cohort: %d retained of %d records", report.retained, report.total_in)
    return cohort


def _worker_count(items: int) -> int:
    """Threads for a per-utterance map: one per CPU in this process's
    affinity mask, at most one per item."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, items))


def _map_ordered(fn, items: list):
    """Yield fn(item) for each item, in order.  An exception raised for an
    item is yielded as that item's result, so the caller accounts for it in
    order on its own thread and the other items still run."""
    def call(item):
        try:
            return fn(item)
        except Exception as exc:
            return exc

    with ThreadPoolExecutor(max_workers=_worker_count(len(items))) as pool:
        yield from pool.map(call, items)


def _per_utterance(cfg: RunConfig, stage: str, fn, skip_report: str):
    """Map fn over the sorted cohort.  Returns (utterance, result) for each
    file fn succeeded on, and the exit status: 1 when more files failed than
    EXTRACT_FAILURE_TOLERANCE allows.  An exception in _SKIP_REASONS, or a
    file error, costs one row in skip_report; any other, and a full disk,
    is raised again and the files not yet started are dropped."""
    cohort = sorted(_load_cohort(cfg), key=lambda u: u.id)
    done, skips, failures = [], [], 0
    for utt, result in zip(cohort, _map_ordered(fn, cohort)):
        if not isinstance(result, Exception):
            done.append((utt, result))
        elif type(result) in _SKIP_REASONS:
            skips.append((utt.id, _SKIP_REASONS[type(result)]))
        elif (isinstance(result, _FILE_ERRORS)
              and getattr(result, "errno", None) not in _DISK_FULL):
            skips.append((utt.id, f"error:{type(result).__name__}"))
            log.error("%s: %s", utt.id, result)
            failures += 1
        else:
            raise result
    write_table(cfg.output_dir / skip_report, ("utterance_id", "reason"), skips,
                cfg.provenance())
    print(f"{stage}: {len(done)} of {len(cohort)} utterances done, "
          f"{len(skips)} skipped ({failures} file errors)")
    if cohort and failures / len(cohort) > EXTRACT_FAILURE_TOLERANCE:
        log.error("%s: %d of %d files failed, above the %.0f%% tolerance",
                  stage, failures, len(cohort), 100 * EXTRACT_FAILURE_TOLERANCE)
        return done, 1
    return done, 0


def cmd_extract(args: argparse.Namespace) -> int:
    """Pitch features for every cohort utterance with at least one voiced frame."""
    cfg = _resolve_config(args)
    done, status = _per_utterance(
        cfg, "extract", lambda utt: contour_stats(extract_f0(load_wav(utt.audio_path))),
        "skip_report.csv")
    write_feature_csv(cfg.output_dir / "features.csv",
                      [FeatureRecord(utterance_id=utt.id, emitter_id=utt.emitter_id,
                                     context=utt.context, duration_s=utt.duration_s,
                                     features=features) for utt, features in done],
                      comment=cfg.provenance())
    return status


def _cohort_from_features(path: Path) -> list[Utterance]:
    return [Utterance(id=r.utterance_id, audio_path=None, emitter_id=r.emitter_id,
                      context=r.context, duration_s=r.duration_s)
            for r in read_feature_csv(path)]


def cmd_partition(args: argparse.Namespace) -> int:
    """Build the subject-independent 3-fold plan from the feature table."""
    cfg = _resolve_config(args)
    cohort = _cohort_from_features(cfg.output_dir / "features.csv")
    plan = build_plan(cohort, cfg.seed)
    write_fold_plan(cfg.output_dir / "folds.csv", plan, comment=cfg.provenance())
    print(f"partition: {len(cohort)} utterances over {FOLD_COUNT} folds")
    return 0


def cmd_train_eval(args: argparse.Namespace) -> int:
    """Nested cost selection per fold, pooled predictions, UAR report."""
    cfg = _resolve_config(args)
    features_path = cfg.output_dir / "features.csv"
    folds_path = cfg.output_dir / "folds.csv"
    records = read_feature_csv(features_path)
    plan = read_fold_plan(folds_path)
    by_id = {r.utterance_id: r for r in records}
    featured, planned = by_id.keys(), plan.roles.keys()
    problems = [(uid, "is listed twice in features.csv")
                for uid, n in Counter(r.utterance_id for r in records).items() if n > 1]
    problems += [(uid, "has no row in folds.csv") for uid in featured - planned]
    problems += [(uid, "has no row in features.csv") for uid in planned - featured]
    if problems:
        uid, reason = min(problems)
        raise ValueError(f"{features_path} and {folds_path} must list the same "
                         f"utterances once each: utterance {uid} {reason}")

    predictions: list[Prediction] = []
    chosen_costs: dict[str, float] = {}
    validation_uar: dict[str, dict] = {}
    capped_machines: dict[str, int] = {}
    for fold in range(FOLD_COUNT):
        train_ids, val_ids, test_ids = plan.fold_membership(fold)
        dev_ids = train_ids + val_ids
        X_dev = np.array([by_id[uid].features.as_row() for uid in dev_ids])
        y_dev = [by_id[uid].context for uid in dev_ids]
        train_idx = np.arange(len(train_ids))
        val_idx = np.arange(len(train_ids), len(dev_ids))
        model, diag = nested_select(X_dev, y_dev, train_idx, val_idx,
                                    grid=cfg.cost_grid, seed=(cfg.seed, fold))
        write_model(cfg.output_dir / f"model_fold{fold}.csv", model,
                    comment=cfg.provenance())
        chosen_costs[str(fold)] = diag["chosen_cost"]
        validation_uar[str(fold)] = {format(c, "g"): u
                                     for c, u in diag["validation_uar"].items()}
        capped_machines[str(fold)] = diag["capped_machines"]
        if diag["capped_machines"]:
            log.warning("fold %d: %d machines stopped at the %d-epoch cap "
                        "without meeting the duality gap %g", fold,
                        diag["capped_machines"], SOLVER_MAX_EPOCHS, SOLVER_GAP)

        X_test = np.array([by_id[uid].features.as_row() for uid in test_ids])
        for uid, predicted in zip(test_ids, predict(model, X_test)):
            predictions.append(Prediction(utterance_id=uid,
                                          true_label=by_id[uid].context,
                                          predicted_label=predicted, fold=fold))
        log.info("fold %d: cost %g, %d test predictions",
                 fold, diag["chosen_cost"], len(test_ids))

    preds = PredictionSet(predictions)
    observed = set(preds.true_labels) | set(preds.predicted_labels)
    labels = [lab for lab in CONTEXT_LABELS if lab in observed] or None
    report = build_report(preds, labels=labels,
                          replicates=cfg.bootstrap_replicates, seed=cfg.seed)
    write_predictions_csv(cfg.output_dir / "predictions.csv", preds,
                          comment=cfg.provenance())
    provenance = {"tool": f"usvpipe {__version__}", "seed": cfg.seed,
                  "config": cfg.config_hash(), "chosen_costs": chosen_costs,
                  "validation_uar": validation_uar,
                  "capped_machines": capped_machines}
    write_atomic(cfg.output_dir / "report.json",
                 report_to_json(report, provenance=provenance).encode("utf-8"))
    write_confusion_csv(cfg.output_dir / "confusion.csv", report,
                        comment=cfg.provenance())
    print(f"train-eval: UAR {report.uar:.4f} "
          f"[{report.ci_low:.4f} - {report.ci_high:.4f}] over {report.n} predictions")
    return 0


def cmd_export_spectrograms(args: argparse.Namespace) -> int:
    """Fixed-shape linear-magnitude spectrogram tensors for external consumers.

    A file that cannot be exported (unreadable, or longer than the 3 s pad)
    costs one row in export_skip_report.csv and is left out of the manifest.
    """
    cfg = _resolve_config(args)
    tensor_dir = cfg.output_dir / "spectrograms"
    tensor_dir.mkdir(parents=True, exist_ok=True)

    def export(utt: Utterance) -> tuple[int, int]:
        spec = export_spectrogram(load_wav(utt.audio_path))
        write_tensor(spec, tensor_dir / f"{utt.id}.usvt")
        return spec.frame_count, spec.bin_count

    done, status = _per_utterance(cfg, "export-spectrograms", export,
                                  "export_skip_report.csv")
    write_table(cfg.output_dir / "spectrogram_manifest.csv",
                ("utterance_id", "file", "frames", "bins"),
                [(utt.id, f"spectrograms/{utt.id}.usvt", *shape)
                 for utt, shape in done], cfg.provenance())
    return status


def cmd_table1(args: argparse.Namespace) -> int:
    """Per-context means of the five voiced-only contour statistics."""
    cfg = _resolve_config(args)
    records = read_feature_csv(cfg.output_dir / "features.csv")
    by_context: dict[str, list] = defaultdict(list)
    for r in records:
        f = r.features
        by_context[r.context].append((f.f0_mean_voiced, f.f0_std_voiced,
                                      f.f0_max_voiced, f.f0_min_voiced,
                                      f.f0_slope_voiced))
    out_path = cfg.output_dir / "context_f0_stats.csv"
    write_table(out_path, ("context", "n", "mean_hz", "std_hz", "max_hz", "min_hz",
                           "slope_hz_per_s"),
                ([context, len(rows)]
                 + [format(v, ".6g") for v in np.array(rows).mean(axis=0)]
                 for context, rows in sorted(by_context.items())), cfg.provenance())
    print(f"table1: {len(by_context)} contexts in {out_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """Generate a synthetic corpus plus a ready-to-use run config."""
    out_dir = Path(args.out)
    annotation_path, schema_path = synth_corpus(
        out_dir, n_emitters=args.emitters, per_class_count=args.per_class,
        seed=args.seed if args.seed is not None else 0,
        sample_rate=args.sample_rate)
    config = {
        "annotation_file": str(annotation_path),
        "schema_file": str(schema_path),
        "audio_dir": str(out_dir),
        "output_dir": str(out_dir / "results"),
        "seed": args.seed if args.seed is not None else 0,
    }
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    print(f"synth: corpus under {out_dir}, run config at {config_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usvpipe",
        description="Analysis pipeline for ultrasound vocalisation corpora")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, help="seed recorded in every artifact")
    common.add_argument("--out", help="output directory (stages share it)")
    common.add_argument("--grid", help="comma-separated cost grid override")
    common.add_argument("--replicates", type=int, help="bootstrap replicate count")
    common.add_argument("--annotations", help="annotation table path")
    common.add_argument("--schema", help="schema config path")
    common.add_argument("--audio-dir", help="base directory for audio references")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("extract", parents=[common],
                   help="pitch features for the filtered cohort").set_defaults(
        func=cmd_extract)
    sub.add_parser("partition", parents=[common],
                   help="subject-independent 3-fold plan").set_defaults(
        func=cmd_partition)
    sub.add_parser("train-eval", parents=[common],
                   help="nested SVM selection and pooled evaluation").set_defaults(
        func=cmd_train_eval)
    sub.add_parser("export-spectrograms", parents=[common],
                   help="fixed-shape spectrogram tensors").set_defaults(
        func=cmd_export_spectrograms)
    sub.add_parser("table1", parents=[common],
                   help="per-context F0 statistics table").set_defaults(
        func=cmd_table1)

    synth = sub.add_parser("synth", help="generate a synthetic test corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--emitters", type=int, default=12)
    synth.add_argument("--per-class", type=int, default=50)
    synth.add_argument("--sample-rate", type=int, default=50_000)
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
