"""Nothing in usvpipe is there for tests alone.

Every public function, method and property is reached by a stage: the first
test runs `synth` and the five stages on a tiny corpus under a profiler that
records each Python function called, in worker threads too, and names each
public member no stage calls.  Static checks parse usvpipe and the
benchmark scripts (test files aside) with ast.  One names each defaulted
parameter of a public function or method that no call there passes, by
keyword or by position.  One names each defaulted parameter that every call
there passes: only tests would use its default.  The last names each
parameter that every call there passes the same literal or ALL_CAPS
constant: it would be a constant.
"""
import ast
import importlib
import inspect
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

# Defaulted parameters that every call in usvpipe or the benchmark scripts
# passes, each kept for a reason outside those calls: "module.function
# (parameter)" -> the reason.
ALLOWED_ALWAYS_PASSED: dict[str, str] = {}

# Parameters that every call in usvpipe or the benchmark scripts passes the
# same literal or ALL_CAPS constant, each kept for a reason outside those
# calls: "module.function(parameter)" -> the reason.
ALLOWED_CONSTANT_ARGUMENTS: dict[str, str] = {
    "usvpipe.svm.train_binary(cost)":
        "benchmarks/probes.py times one full-corpus-sized solve at one cost",
}

PACKAGE = Path(usvpipe.__file__).parent
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted(
    path for path in (Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py")
    if not path.name.startswith("test_"))

# What a call passes for a parameter when a *args or **kwargs may hold it
SPLAT = object()


def public_parameters(source: str, module: str) -> dict:
    """"module.function(parameter)" -> (function name, parameter name, the
    parameter's position among a call's arguments or None if keyword-only,
    whether it has a default) for each named parameter of a public function
    or method.  A method called as obj.method(...) or Class.method(...) is
    not passed its first parameter, so a method's positions count from its
    second, and that first parameter is left out."""
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
            skip = bound and not static
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[skip:], skip):
                found[f"{scope}.{node.name}({arg.arg})"] = (
                    node.name, arg.arg, i - skip, i >= first)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                found[f"{scope}.{node.name}({arg.arg})"] = (
                    node.name, arg.arg, None, default is not None)
    return found


def _name(expr) -> str | None:
    """The name a Name or Attribute expression ends in, else None."""
    return getattr(expr, "id", getattr(expr, "attr", None))


def call_sites(source: str) -> list[tuple[str, list, dict]]:
    """(callee name, positional argument expressions, keyword name ->
    argument expression) of each call whose callee is a name or an
    attribute; a **kwargs is the keyword None.  A function passed by name
    as a call's first argument, as in _timed(train_binary, X, y, 1.0),
    counts as called with the call's other arguments."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        if isinstance(node.func, (ast.Name, ast.Attribute)):
            calls.append((_name(node.func), node.args, keywords))
        if node.args and isinstance(node.args[0], (ast.Name, ast.Attribute)):
            calls.append((_name(node.args[0]), node.args[1:], keywords))
    return calls


def passed(call: tuple, name: str, position: int | None):
    """The expression call passes for the parameter, SPLAT if a *args or
    **kwargs may pass it, or None if it passes nothing."""
    _callee, args, keywords = call
    if name in keywords:
        return keywords[name]
    if position is not None:
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                return SPLAT
            if i == position:
                return arg
    return SPLAT if None in keywords else None


def unpassed_defaults(parameters: dict, calls: list) -> list[str]:
    """The keys of the defaulted parameters that no call to a function of
    that name passes."""
    return sorted(key for key, (function, name, position, defaulted)
                  in parameters.items() if defaulted and not any(
                      call[0] == function and passed(call, name, position) is not None
                      for call in calls))


def always_passed_defaults(parameters: dict, calls: list) -> list[str]:
    """The keys of the defaulted parameters that one or more calls to a
    function of that name pass, every one of them by keyword or by position
    (a *args or **kwargs that may hold it does not count)."""
    named = []
    for key, (function, name, position, defaulted) in parameters.items():
        values = [passed(call, name, position) for call in calls if call[0] == function]
        if defaulted and values and all(
                value is not None and value is not SPLAT for value in values):
            named.append(key)
    return sorted(named)


def _constant(expr) -> str | None:
    """The ALL_CAPS name expr refers to (LIMIT, module.LIMIT), expr's dump if
    it is a literal, or None.  A one-letter name (X, a matrix) is no
    constant."""
    if isinstance(expr, (ast.Name, ast.Attribute)):
        name = _name(expr)
        return name if name.isupper() and len(name) > 1 else None
    try:
        ast.literal_eval(expr)
    except (ValueError, TypeError):
        return None
    return ast.dump(expr)


def constant_arguments(parameters: dict, calls: list) -> list[str]:
    """The keys of the parameters that one or more calls to a function of
    that name pass, every one of them the same literal or ALL_CAPS constant."""
    named = []
    for key, (function, name, position, _defaulted) in parameters.items():
        values = [passed(call, name, position) for call in calls if call[0] == function]
        constants = {_constant(value) if isinstance(value, ast.expr) else None
                     for value in values}
        if len(constants) == 1 and None not in constants:
            named.append(key)
    return sorted(named)


def _usvpipe_parameters_and_calls() -> tuple[dict, list]:
    parameters = {}
    for path in sorted(PACKAGE.glob("*.py")):
        parameters.update(public_parameters(path.read_text(), f"usvpipe.{path.stem}"))
    calls = [call for path in CALLERS for call in call_sites(path.read_text())]
    return parameters, calls


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = unpassed_defaults(*_usvpipe_parameters_and_calls())
    extra = [key for key in unpassed if key not in ALLOWED_DEFAULTS]
    assert not extra, f"no call in usvpipe or benchmarks/ passes {', '.join(extra)}"
    stale = sorted(ALLOWED_DEFAULTS.keys() - set(unpassed))
    assert not stale, f"allowed defaults that are gone or now passed: {stale}"


def test_no_default_is_left_to_the_tests_alone():
    always = always_passed_defaults(*_usvpipe_parameters_and_calls())
    extra = [key for key in always if key not in ALLOWED_ALWAYS_PASSED]
    assert not extra, ("every call in usvpipe and benchmarks/ passes "
                       f"{', '.join(extra)}, so only tests use the default")
    stale = sorted(ALLOWED_ALWAYS_PASSED.keys() - set(always))
    assert not stale, f"allowed defaults that are gone or not always passed: {stale}"


def test_no_parameter_is_always_passed_one_constant():
    constant = constant_arguments(*_usvpipe_parameters_and_calls())
    extra = [key for key in constant if key not in ALLOWED_CONSTANT_ARGUMENTS]
    assert not extra, ("every call in usvpipe and benchmarks/ passes one constant "
                       f"for {', '.join(extra)}")
    stale = sorted(ALLOWED_CONSTANT_ARGUMENTS.keys() - set(constant))
    assert not stale, f"allowed constant arguments that are gone or now vary: {stale}"


def test_an_unpassed_default_is_named():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "class K:\n    def m(self, e=4, g=5):\n        pass\n"
              "    @staticmethod\n    def s(h=6):\n        pass\n"
              "def _private(i=7):\n    pass\n")
    callers = "f(0, 1, c=2)\nk.m(4)\nK.s(**options)\n"
    assert unpassed_defaults(public_parameters(source, "mod"),
                             call_sites(callers)) == ["mod.K.m(g)", "mod.f(d)"]


def test_a_default_every_call_passes_is_named():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "class K:\n    def m(self, e=4, g=5):\n        pass\n"
              "def s(h=6):\n    pass\n"
              "def unused(i=7):\n    pass\n"
              "def _private(j=8):\n    pass\n")
    callers = ("f(0, 1, c=2)\nf(0, b=2, d=3)\nk.m(4, g=5)\nK.m(e=4)\n"
               "s(**options)\n_private(8)\n")
    assert always_passed_defaults(public_parameters(source, "mod"),
                                  call_sites(callers)) == ["mod.K.m(e)", "mod.f(b)"]


def test_a_parameter_always_passed_one_constant_is_named():
    source = ("def f(a, b, c, *, d, e=1):\n    pass\n"
              "class K:\n    def m(self, g, h):\n        pass\n"
              "def s(i):\n    pass\n"
              "def unused(j):\n    pass\n"
              "def _private(k):\n    pass\n")
    callers = ("f(x, 2, LIMIT, d='s', e=-1)\nf(y, 2, mod.LIMIT, d='t')\n"
               "k.m(3, h=OTHER)\nK.m(3, h=other)\ns(*args)\n_private(4)\n")
    assert constant_arguments(public_parameters(source, "mod"), call_sites(callers)) == [
        "mod.K.m(g)", "mod.f(b)", "mod.f(c)"]


def test_a_function_passed_by_name_counts_as_called_with_the_other_arguments():
    source = ("def f(a, b=1, *, c=2):\n    pass\n"
              "def g(d, e=3):\n    pass\n")
    callers = "_timed(f, X, 1.0, c=LIMIT)\nrun(mod.g, 5)\n"
    parameters = public_parameters(source, "mod")
    calls = call_sites(callers)
    assert unpassed_defaults(parameters, calls) == ["mod.g(e)"]
    assert constant_arguments(parameters, calls) == [
        "mod.f(b)", "mod.f(c)", "mod.g(d)"]
