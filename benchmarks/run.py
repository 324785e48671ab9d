"""usvpipe benchmark: the batch pipeline, stage by stage, as its users run it.

    python3 benchmarks/run.py --workload audio-250k --seed 7 --seconds 5 --trace 0
    python3 benchmarks/run.py --all                 # every workload, fresh process each

Each run builds its workload's inputs from --seed (set-up), calls the CLI
stages in order through ``usvpipe.cli.main`` in this process (one client,
closed loop, no concurrency), checks the artifacts, and prints one JSON
object as the last line of standard output.  With --trace 0 it reports the
end-to-end metrics of untraced runs; with --trace 1 it runs the pipeline
once under the span tracer, then the full-scale probes, and reports the
per-layer metrics.  Everything is read and written under the checkout.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts before the heavy imports

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 3
STAGE_METRICS = {"extract": "extract_s", "train-eval": "train_eval_s",
                 "export-spectrograms": "export_s"}
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "extract_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import usvpipe from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import usvpipe
    except ImportError as exc:
        raise SystemExit(f"error: cannot import usvpipe from {SRC}: {exc}") from exc
    if Path(usvpipe.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: usvpipe imported from {usvpipe.__file__}, "
                         f"not from {SRC}")


def run_stages(cli, inputs, out: Path) -> tuple[dict[str, float], int]:
    """Call each stage through cli.main; return wall seconds per stage and failures."""
    out.mkdir(parents=True)
    if inputs.features_csv is not None:
        shutil.copyfile(inputs.features_csv, out / "features.csv")
    seconds, failed = {}, 0
    for stage in inputs.stages:
        start = time.perf_counter()
        code = cli.main([stage, "--config", str(inputs.config), "--out", str(out)])
        seconds[stage] = time.perf_counter() - start
        failed += code != 0
    return seconds, failed


def check_outputs(checks, inputs, out: Path) -> dict:
    """Run the output checks on one pipeline's artifacts; count per-item work."""
    stages, cohort = inputs.stages, inputs.cohort_size
    problems: dict[str, list[str]] = {}
    items = item_failures = 0

    def run(name, check, *args):
        try:
            problems[name] = check(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems[name] = [f"{type(exc).__name__}: {exc}"]

    run("cohort_accounted", checks.check_cohort_accounted, out, cohort)
    if "extract" in stages:
        items += cohort
        try:
            item_failures += checks.extract_errors(out)
        except OSError:
            item_failures += cohort
    if "partition" in stages:
        run("folds", checks.check_folds, out)
    if "train-eval" in stages:
        run("predictions", checks.check_predictions, out)
    if inputs.acceptance_check:
        run("acceptance", checks.check_acceptance, out, cohort)
    if "export-spectrograms" in stages:
        items += cohort
        try:
            problems["tensors"], good = checks.check_tensors(out, cohort)
        except (OSError, ValueError, IndexError) as exc:
            problems["tensors"], good = [f"{type(exc).__name__}: {exc}"], 0
        item_failures += cohort - good
    digests, uar = None, None
    try:
        digests = checks.artifact_digests(out)
    except (OSError, ValueError) as exc:
        problems["artifact_digests"] = [f"{type(exc).__name__}: {exc}"]
    if "train-eval" in stages:
        try:
            uar = checks.read_uar(out)[0]
        except (OSError, ValueError, KeyError) as exc:
            problems["report"] = [f"{type(exc).__name__}: {exc}"]
    return {"problems": problems, "items": items, "item_failures": item_failures,
            "digests": digests, "test_uar": uar}


def code_digest() -> str:
    """Digest of the program's source and the input generator."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(digest_sets: list[dict], key: str) -> list[str]:
    """Artifacts identical across this run's pipelines and earlier runs.

    The first run of a key (workload, seed and code digest) in a checkout
    records its digests in .bench_results/digests.json; later runs of the
    same key compare with them.
    """
    if not digest_sets:
        return ["no artifact digests"]
    problems = [f"pipeline {i} artifacts differ from pipeline 0"
                for i, d in enumerate(digest_sets[1:], 1) if d != digest_sets[0]]
    store = RESULTS / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        changed = sorted(name for name in known[key].keys() | digest_sets[0].keys()
                         if known[key].get(name) != digest_sets[0].get(name))
        if changed:
            problems.append(f"{len(changed)} artifacts differ from an earlier run "
                            f"at this seed, e.g. {changed[0]}")
    else:
        known[key] = digest_sets[0]
        RESULTS.mkdir(exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return problems


def _proc_field(path: str, key: str) -> str | None:
    """Value of the first 'key: value' line of a /proc text file."""
    try:
        with open(path) as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith(key)), None)
    except OSError:
        return None


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    try:  # the ceiling keeps git from searching above the checkout
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "threads": _proc_field("/proc/self/status", "Threads"),
        "blas_threads_env": {v: os.environ.get(v) for v in blas_vars},
        "git_commit": commit,
        "workload_seed": seed,
        "disk_free_gb": round(shutil.disk_usage(ROOT).free / 1e9, 2),
    }


def set_up(make, work: Path, seed: int, checks):
    """Build the inputs SETUP_REPEATS times and keep the first copy.

    Returns the inputs, the seconds each build took, and the problems of the
    check that every build made the same files.
    """
    generate_s, digests, inputs = [], set(), None
    for k in range(SETUP_REPEATS):
        root = work / f"setup{k}"
        start = time.perf_counter()
        made = make(root, seed)
        generate_s.append(time.perf_counter() - start)
        digests.add(checks.input_digest(root, made.input_files))
        if inputs is None:
            inputs = made
        else:
            shutil.rmtree(root)
    repeat = [] if len(digests) == 1 else ["set-up made different inputs from one seed"]
    return inputs, generate_s, {"inputs_repeat": repeat}


def run_pipelines(cli, checks, inputs, work: Path, seconds: float, tracer) -> list:
    """Whole pipelines, checked one by one, until `seconds` of stage time.

    A tracer, if given, stays installed for the loop.  The checks call no
    wrapped binding, so every span comes from the stages.
    """
    pipelines = []
    if tracer is not None:
        tracer.install()
    try:
        while True:
            out = work / f"out{len(pipelines)}"
            stage_seconds, stage_failures = run_stages(cli, inputs, out)
            result = check_outputs(checks, inputs, out)
            result.update(seconds=stage_seconds, stage_failures=stage_failures)
            pipelines.append(result)
            shutil.rmtree(out)
            if sum(sum(p["seconds"].values()) for p in pipelines) >= seconds:
                return pipelines
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_workload(args) -> int:
    _import_program()
    import checks
    import tracing
    import workloads
    from usvpipe import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, generate_s, problems = set_up(
            workloads.WORKLOADS[args.workload], work, args.seed, checks)
        setup_s = import_s + statistics.median(generate_s)
        tracer = tracing.Tracer() if args.trace else None
        pipelines = run_pipelines(cli, checks, inputs, work,
                                  0.0 if args.trace else args.seconds, tracer)

        for i, p in enumerate(pipelines):
            problems.update((f"pipeline{i}.{name}", found)
                            for name, found in p["problems"].items())
        problems["digests"] = check_digests(
            [p["digests"] for p in pipelines if p["digests"] is not None],
            f"{args.workload}:seed{args.seed}:{code_digest()}")
        # Operations: stage calls, per-utterance items and output checks.
        attempted = len(problems) + sum(len(inputs.stages) + p["items"]
                                        for p in pipelines)
        failed = sum(bool(found) for found in problems.values()) + sum(
            p["stage_failures"] + p["item_failures"] for p in pipelines)

        stage_s = {STAGE_METRICS.get(stage, f"{stage}_s"):
                   statistics.median(p["seconds"][stage] for p in pipelines)
                   for stage in inputs.stages}
        pipeline_s = statistics.median(sum(p["seconds"].values()) for p in pipelines)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "pipelines": len(pipelines), "setup_generate_s": generate_s,
            "import_s": import_s, "stage_s": stage_s, "pipeline_s": pipeline_s,
            "test_uar": pipelines[-1]["test_uar"],
            "problems": {k: v for k, v in problems.items() if v},
            "environment": environment(args.seed),
        }
        if args.trace:
            import probes
            metrics = tracing.per_layer_metrics(
                tracer, pipeline_s, probes.run_probes(work / "probes", args.seed),
                tracing.per_call_overhead_s(), failed / attempted,
                record["test_uar"])
            record["spans"] = tracer.totals()
            record["convergence"] = tracing.convergence_by_cost(tracer.machines)
        else:
            values = {"setup_s": setup_s, "pipeline_s": pipeline_s,
                      "extract_s": stage_s.get("extract_s"),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()
                       if values[name] is not None}
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, found in record["problems"].items():
        for problem in found:
            print(f"CHECK FAILED {name}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>14} {name:<40} {value:>14.6g} {unit}")
    if not args.trace:  # stage walls and accuracy: reported, not bounded
        for name, value in stage_s.items():
            print(f"{args.workload:>14} {'stage ' + name:<40} {value:>14.6g} s")
        if record["test_uar"] is not None:
            print(f"{args.workload:>14} {'test_uar':<40} {record['test_uar']:>14.6g}")
    print(f"{args.workload:>14} {'operations failed / attempted':<40} "
          f"{failed:>7d} / {attempted}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; summary of the end-to-end metrics."""
    _import_program()
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="workload name")
    target.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum measured time; whole pipelines only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pipeline plus probes, per-layer metrics")
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
