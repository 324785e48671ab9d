"""Outside-in tracing: spans around the public functions of each usvpipe layer.

The tracer replaces every public function of the layer modules at each
module attribute that binds it, so calls made through names imported into
another module (``usvpipe.cli.load_wav``, ``usvpipe.pitch.stft``) are seen
too.  Nothing in the package is edited; ``uninstall`` puts the original
functions back.  Spans live in memory as [name, parent, start_ns, end_ns];
a span's self time is its duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).
"""
from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

from usvpipe.svm import COST_GRID, SOLVER_MAX_EPOCHS

LAYERS = ("corpus", "audio_io", "spectral", "pitch", "partition", "svm",
          "evaluation", "cli")


class Tracer:
    """Collects spans plus the counters that need a call's arguments or result."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"usvpipe.{layer}")
                        for layer in LAYERS}
        self._layer_of = {m.__name__: layer for layer, m in self.modules.items()}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # (rows, cost, epochs) of every machine train_binary returned
        self.machines: list[tuple[int, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._hooks = {
            "svm.train_binary": self._on_train_binary,
            "audio_io.load_wav": self._on_wav_read,
            "audio_io.wav_duration": self._on_wav_read,
            "spectral.write_tensor": self._on_write_tensor,
        }

    # -- counters -------------------------------------------------------
    def _on_train_binary(self, args, kwargs, machine):
        y = args[1] if len(args) > 1 else kwargs["y"]
        self.machines.append((len(y), machine.cost,
                              len(machine.objective_history) - 1))

    def _on_wav_read(self, args, kwargs, _result):
        self.counters["wav_bytes_read"] += os.path.getsize(
            args[0] if args else kwargs["path"])

    def _on_write_tensor(self, args, kwargs, _result):
        self.counters["tensor_bytes_written"] += os.path.getsize(
            args[1] if len(args) > 1 else kwargs["path"])

    # -- wrapping -------------------------------------------------------
    def wrap(self, fn, name: str):
        """Return fn wrapped in a span named name (also used for calibration)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0, 0])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2:] = (start, clock())
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in self._layer_of):
                    continue
                if obj not in wrappers:
                    layer = self._layer_of[obj.__module__]
                    wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, _parent, start, end), children in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - children) / 1e9
        return dict(out)


def per_call_overhead_s(calls: int = 50_000, repeats: int = 3) -> float:
    """Seconds one span adds to a call, from wrapped versus bare no-op calls."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    best = {}
    for fn in (noop, traced):
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - start)
        best[fn] = min(timings)
    return max(best[traced] - best[noop], 0.0) / calls


def _per_cost_names() -> list[tuple[str, str]]:
    names = []
    for cost in COST_GRID:
        names += [(f"svm.c{cost:g}.epochs_mean", "epochs"),
                  (f"svm.c{cost:g}.capped", "count")]
    return names


# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [("svm.train_binary_s", "s"), ("svm.machines", "count"),
     ("svm.epochs_total", "epochs"), ("svm.epochs_p50", "epochs"),
     ("svm.epochs_max", "epochs"), ("svm.capped_machines", "count"),
     ("svm.converged_ratio", "ratio"), ("svm.coord_steps", "count"),
     ("svm.ns_per_coord_step", "ns"), ("svm.nested_select_self_s", "s"),
     ("svm.fit_ovo_self_s", "s"), ("svm.predict_s", "s"),
     ("svm.write_model_s", "s")]
    + _per_cost_names()
    + [("svm.probe_n4000_c1_s", "s"), ("svm.probe_n4000_c1_epochs", "epochs"),
       ("evaluation.uar_from_labels_s", "s"), ("evaluation.bootstrap_ci_s", "s"),
       ("evaluation.build_report_s", "s"),
       ("evaluation.probe_bootstrap_35k_s", "s"),
       ("audio_io.load_wav_s", "s"), ("audio_io.load_wav_calls", "count"),
       ("audio_io.wav_bytes_read", "bytes"), ("audio_io.wav_duration_s", "s"),
       ("audio_io.wav_duration_calls", "count"),
       ("audio_io.probe_3s_load_wav_s", "s"),
       ("corpus.load_annotations_s", "s"), ("corpus.filter_cohort_self_s", "s"),
       ("spectral.stft_s", "s"), ("spectral.stft_calls", "count"),
       ("spectral.export_spectrogram_s", "s"), ("spectral.write_tensor_s", "s"),
       ("spectral.tensor_bytes_written", "bytes"),
       ("spectral.probe_3s_export_spectrogram_s", "s"),
       ("spectral.probe_3s_write_tensor_s", "s"),
       ("pitch.extract_f0_self_s", "s"), ("pitch.contour_stats_s", "s"),
       ("pitch.write_feature_csv_s", "s"), ("pitch.read_feature_csv_s", "s"),
       ("pitch.probe_3s_extract_f0_s", "s"), ("pitch.probe_3s_contour_stats_s", "s"),
       ("partition.build_plan_s", "s"), ("partition.write_fold_plan_s", "s"),
       ("partition.read_fold_plan_s", "s"),
       ("cli.extract_s", "s"), ("cli.extract_self_s", "s"),
       ("cli.train_eval_s", "s"), ("cli.train_eval_self_s", "s"),
       ("cli.export_s", "s"), ("cli.export_self_s", "s"),
       ("cli.partition_s", "s"), ("cli.table1_s", "s"),
       ("test_uar", "ratio"), ("failed_ops_ratio", "ratio"),
       ("trace_overhead_ratio", "ratio")]
)


def convergence_by_cost(machines) -> dict[str, dict[str, float]]:
    """Machines, mean epochs and capped machines for each cost that was trained."""
    by_cost = defaultdict(list)
    for _rows, cost, epochs in machines:
        by_cost[cost].append(epochs)
    return {format(cost, "g"): {
                "machines": len(epochs),
                "epochs_mean": sum(epochs) / len(epochs),
                "capped": sum(e >= SOLVER_MAX_EPOCHS for e in epochs)}
            for cost, epochs in sorted(by_cost.items())}


def per_layer_metrics(tracer: Tracer, pipeline_s: float, probes: dict[str, float],
                      overhead_per_call_s: float, failed_ops_ratio: float,
                      test_uar: float | None) -> dict[str, tuple[float, str]]:
    """Reduce one traced pipeline (plus the probes) to the PER_LAYER metrics.

    Ratios with no base (no machine trained) are reported as 0.
    """
    totals = tracer.totals()

    def inclusive(span):
        return totals.get(span, {}).get("s", 0.0)

    def self_s(span):
        return totals.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    epochs = sorted(e for _n, _c, e in tracer.machines)
    coord_steps = sum(n * e for n, _c, e in tracer.machines)
    capped = sum(e >= SOLVER_MAX_EPOCHS for e in epochs)
    train_s = inclusive("svm.train_binary")
    tracing_s = len(tracer.spans) * overhead_per_call_s
    values = {
        "svm.train_binary_s": train_s,
        "svm.machines": len(epochs),
        "svm.epochs_total": sum(epochs),
        "svm.epochs_p50": statistics.median(epochs) if epochs else 0,
        "svm.epochs_max": epochs[-1] if epochs else 0,
        "svm.capped_machines": capped,
        "svm.converged_ratio": (len(epochs) - capped) / len(epochs) if epochs else 0.0,
        "svm.coord_steps": coord_steps,
        "svm.ns_per_coord_step": train_s * 1e9 / coord_steps if coord_steps else 0.0,
        "svm.nested_select_self_s": self_s("svm.nested_select"),
        "svm.fit_ovo_self_s": self_s("svm.fit_ovo"),
        "svm.predict_s": inclusive("svm.predict"),
        "svm.write_model_s": inclusive("svm.write_model"),
        "evaluation.uar_from_labels_s": inclusive("evaluation.uar_from_labels"),
        "evaluation.bootstrap_ci_s": inclusive("evaluation.bootstrap_ci"),
        "evaluation.build_report_s": inclusive("evaluation.build_report"),
        "audio_io.load_wav_s": inclusive("audio_io.load_wav"),
        "audio_io.load_wav_calls": calls("audio_io.load_wav"),
        "audio_io.wav_bytes_read": tracer.counters["wav_bytes_read"],
        "audio_io.wav_duration_s": inclusive("audio_io.wav_duration"),
        "audio_io.wav_duration_calls": calls("audio_io.wav_duration"),
        "corpus.load_annotations_s": inclusive("corpus.load_annotations"),
        "corpus.filter_cohort_self_s": self_s("corpus.filter_cohort"),
        "spectral.stft_s": inclusive("spectral.stft_samples"),
        "spectral.stft_calls": calls("spectral.stft_samples"),
        "spectral.export_spectrogram_s": inclusive("spectral.export_spectrogram"),
        "spectral.write_tensor_s": inclusive("spectral.write_tensor"),
        "spectral.tensor_bytes_written": tracer.counters["tensor_bytes_written"],
        "pitch.extract_f0_self_s": self_s("pitch.extract_f0"),
        "pitch.contour_stats_s": inclusive("pitch.contour_stats"),
        "pitch.write_feature_csv_s": inclusive("pitch.write_feature_csv"),
        "pitch.read_feature_csv_s": inclusive("pitch.read_feature_csv"),
        "partition.build_plan_s": inclusive("partition.build_plan"),
        "partition.write_fold_plan_s": inclusive("partition.write_fold_plan"),
        "partition.read_fold_plan_s": inclusive("partition.read_fold_plan"),
        "cli.extract_s": inclusive("cli.cmd_extract"),
        "cli.extract_self_s": self_s("cli.cmd_extract"),
        "cli.train_eval_s": inclusive("cli.cmd_train_eval"),
        "cli.train_eval_self_s": self_s("cli.cmd_train_eval"),
        "cli.export_s": inclusive("cli.cmd_export_spectrograms"),
        "cli.export_self_s": self_s("cli.cmd_export_spectrograms"),
        "cli.partition_s": inclusive("cli.cmd_partition"),
        "cli.table1_s": inclusive("cli.cmd_table1"),
        "test_uar": test_uar if test_uar is not None else 0.0,
        "failed_ops_ratio": failed_ops_ratio,
        "trace_overhead_ratio": tracing_s / max(pipeline_s - tracing_s, 1e-9),
    }
    for cost, row in convergence_by_cost(tracer.machines).items():
        values[f"svm.c{cost}.epochs_mean"] = row["epochs_mean"]
        values[f"svm.c{cost}.capped"] = row["capped"]
    values.update(probes)
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}
