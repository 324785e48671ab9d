"""Nothing in usvpipe is there for tests alone.

Every public function, method and property is reached by a stage: the first
test runs `synth` and the five stages on a tiny corpus under a profiler that
records each Python function called, in worker threads too, and names each
public member no stage calls.  Every parameter with a default is passed: a
static check parses usvpipe and the benchmark scripts (test files aside)
with ast and names each defaulted parameter of a public function or method
that no call there passes, by keyword or by position.
"""
import ast
import importlib
import inspect
import math
import pkgutil
import sys
import threading
from pathlib import Path

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


# Defaulted parameters that no call in usvpipe or the benchmark scripts
# passes, each kept for a reason outside those calls: "module.function
# (parameter)" -> the reason.
ALLOWED_DEFAULTS: dict[str, str] = {}

PACKAGE = Path(usvpipe.__file__).parent
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted(
    path for path in (Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py")
    if not path.name.startswith("test_"))


def defaulted_parameters(source: str, module: str) -> dict:
    """"module.function(parameter)" -> (function name, parameter name, the
    parameter's position among a call's arguments, or None if keyword-only)
    for each defaulted parameter of a public function or method.  A method
    called as obj.method(...) or Class.method(...) is not passed its first
    parameter, so a method's positions count from its second."""
    tree = ast.parse(source)
    scopes = [(module, tree.body, 0)] + [
        (f"{module}.{node.name}", node.body, 1) for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    found = {}
    for scope, body, bound in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                found[f"{scope}.{node.name}({arg.arg})"] = (
                    node.name, arg.arg, i - (bound and not static))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[f"{scope}.{node.name}({arg.arg})"] = (node.name, arg.arg, None)
    return found


def call_sites(source: str) -> list[tuple[str, float, set]]:
    """(callee name, positional argument count, keyword names) of each call
    whose callee is a name or an attribute; a *args counts as any number of
    positional arguments, and a **kwargs as the keyword None, every name."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            calls.append((getattr(node.func, "id", getattr(node.func, "attr", None)),
                          count, {keyword.arg for keyword in node.keywords}))
    return calls


def unpassed_defaults(parameters: dict, calls: list) -> list[str]:
    """The keys of parameters that no call to a function of that name passes."""
    return sorted(key for key, (function, name, position) in parameters.items()
                  if not any(callee == function and (
                      name in keywords or None in keywords
                      or (position is not None and count > position))
                      for callee, count, keywords in calls))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    parameters = {}
    for path in sorted(PACKAGE.glob("*.py")):
        parameters.update(defaulted_parameters(path.read_text(),
                                               f"usvpipe.{path.stem}"))
    calls = [call for path in CALLERS for call in call_sites(path.read_text())]
    unpassed = unpassed_defaults(parameters, calls)
    extra = [key for key in unpassed if key not in ALLOWED_DEFAULTS]
    assert not extra, f"no call in usvpipe or benchmarks/ passes {', '.join(extra)}"
    stale = sorted(ALLOWED_DEFAULTS.keys() - set(unpassed))
    assert not stale, f"allowed defaults that are gone or now passed: {stale}"


def test_an_unpassed_default_is_named():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "class K:\n    def m(self, e=4, g=5):\n        pass\n"
              "    @staticmethod\n    def s(h=6):\n        pass\n"
              "def _private(i=7):\n    pass\n")
    callers = "f(0, 1, c=2)\nk.m(4)\nK.s(**options)\n"
    assert unpassed_defaults(defaulted_parameters(source, "mod"),
                             call_sites(callers)) == ["mod.K.m(g)", "mod.f(d)"]
