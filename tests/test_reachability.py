"""Every public function, method and property of usvpipe is reached by a stage.

The test runs `synth` and the five stages on a tiny corpus under a profiler
that records each Python function called, in worker threads too.  A public
member no stage calls is code only tests reach, and the test names it.
"""
import importlib
import inspect
import pkgutil
import sys
import threading

import usvpipe
from usvpipe import evaluation, svm
from usvpipe.cli import main

STAGES = ("extract", "partition", "train-eval", "table1", "export-spectrograms")

# Public members no stage calls, each kept for a reason outside the stages.
ALLOWED = {
    # the verify stage on the ROADMAP re-derives predictions from the models
    "usvpipe.svm.read_model",
    # the same stage re-derives report.json from predictions.csv
    "usvpipe.evaluation.read_predictions_csv",
    # benchmarks/checks.py reads every tensor back to check its size
    "usvpipe.spectral.read_tensor",
    # benchmarks/probes.py times one full-corpus-sized solve through it
    "usvpipe.svm.train_binary",
}


def _public_members() -> dict:
    """Qualified name -> code object of each public function, method and
    property defined in a usvpipe module."""
    members = {}
    for info in pkgutil.iter_modules(usvpipe.__path__):
        module = importlib.import_module(f"usvpipe.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", "") != module.__name__:
                continue
            qualified = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                members[qualified] = obj.__code__
            elif inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    if isinstance(value, property):
                        value = value.fget
                    elif isinstance(value, (classmethod, staticmethod)):
                        value = value.__func__
                    if not attr.startswith("_") and inspect.isfunction(value):
                        members[f"{qualified}.{attr}"] = value.__code__
    return members


def _run_pipeline(root):
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--emitters", "3",
                 "--per-class", "3"]) == 0
    for stage in STAGES:
        assert main([stage, "--config", str(corpus / "config.json")]) == 0


def test_every_public_member_is_reached_by_a_stage(tmp_path, monkeypatch):
    monkeypatch.setattr(svm, "COST_GRID", (0.1, 1.0))
    monkeypatch.setattr(evaluation, "BOOTSTRAP_REPLICATES", 10)
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        _run_pipeline(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    members = _public_members()
    assert ALLOWED <= members.keys(), "allowed members that no longer exist"
    unreached = {name for name, code in members.items() if code not in called}
    assert unreached - ALLOWED == set(), "public members no stage calls"
    assert ALLOWED <= unreached, "allowed members a stage now calls"
