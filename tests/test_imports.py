"""Every name a usvpipe module imports is used in that module.

No linter ships with the toolchain, so this parses each module with ast: an
imported name that no expression, annotation or quoted annotation of the
module reads is reported with its module.  Every stage process imports
usvpipe.cli, so it must load no scipy: importing scipy.signal takes about
1.5 s and 76 MB.  Only usvpipe.synth uses it, to smooth the jitter of a
clip with f0_std > 0, and loads it at the first such clip; importing synth
or building a jitter-free clip loads no scipy module.  The five stages run
where no scipy module can be imported at all.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import usvpipe
from usvpipe.synth import synth_corpus

MODULES = sorted(Path(usvpipe.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    quoted = [ast.parse(note.value, mode="eval") for node in ast.walk(tree)
              for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
              if isinstance(note, ast.Constant) and isinstance(note.value, str)]
    used = {node.id for root in [tree, *quoted] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"usvpipe/{path.name} never uses {', '.join(unused)}"


def test_an_unused_import_is_named():
    source = ("import os\nimport numpy as np\nfrom pathlib import Path, PurePath\n"
              "def f(p: Path) -> 'np.ndarray':\n    return p\n")
    assert unused_imports(source) == ["PurePath", "os"]


def scipy_modules_after(code: str) -> list[str]:
    """Run code in a fresh interpreter; return the lines it prints, where
    LOADED prints the scipy modules loaded so far.  Importing NO_SCIPY
    makes every later scipy import raise ImportError."""
    src = str(Path(usvpipe.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    prelude = ("import sys\n"
               "def LOADED():\n"
               "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
               "class NO_SCIPY:\n"
               "    def find_spec(name, path=None, target=None):\n"
               "        if name.split('.')[0] == 'scipy':\n"
               "            raise ImportError(f'{name}: scipy is blocked')\n")
    return subprocess.run([sys.executable, "-c", prelude + code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import usvpipe.cli\nLOADED()") == ["[]"]


def test_synth_loads_scipy_signal_only_for_a_jittered_clip():
    code = ("from dataclasses import replace\n"
            "from usvpipe.synth import SynthSpec, synth_utterance\n"
            "LOADED()\n"
            "spec = SynthSpec('feeding', 9000.0, 0.0, 500.0, 0.01, 0.5, 'bat00', 3)\n"
            "synth_utterance(spec, 50_000)\n"
            "LOADED()\n"
            "synth_utterance(replace(spec, f0_std=50.0), 50_000)\n"
            "print('scipy.signal' in sys.modules)\n")
    assert scipy_modules_after(code) == ["[]", "[]", "True"]


def test_the_stages_run_on_numpy_alone(tmp_path):
    """A stage that imported scipy.fft, say, would cost audio-250k about
    21 MB of peak RSS; here its import raises ImportError."""
    annotations, schema = synth_corpus(tmp_path, n_emitters=3, per_class_count=3,
                                       seed=1)
    flags = ["--annotations", str(annotations), "--schema", str(schema),
             "--out", str(tmp_path / "results")]
    code = ("sys.meta_path.insert(0, NO_SCIPY)\n"
            "from usvpipe.cli import main\n"
            f"print([main([stage, *{flags!r}])\n"
            "       for stage in ('extract', 'partition', 'train-eval', 'table1',\n"
            "                     'export-spectrograms')])\n"
            "LOADED()\n")
    assert scipy_modules_after(code)[-2:] == ["[0, 0, 0, 0, 0]", "[]"]
