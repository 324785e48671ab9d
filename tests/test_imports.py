"""Every name a usvpipe module imports is used in that module.

No linter ships with the toolchain, so this parses each module with ast: an
imported name that no expression, annotation or quoted annotation of the
module reads is reported with its module.  usvpipe runs on numpy alone:
scipy is a test dependency only (importing scipy.signal after usvpipe.cli
raises max RSS by about 70 MB).  Importing the CLI or synth, or building a
clip with or without pitch jitter, loads no scipy module, and synth and the
five stages run where no scipy module can be imported at all.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import usvpipe

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


def test_synth_loads_no_scipy_jittered_or_not():
    code = ("from dataclasses import replace\n"
            "from usvpipe.synth import SynthSpec, synth_utterance\n"
            "LOADED()\n"
            "spec = SynthSpec('feeding', 9000.0, 0.0, 500.0, 0.01, 0.5, 'bat00', 3)\n"
            "synth_utterance(spec, 50_000)\n"
            "LOADED()\n"
            "synth_utterance(replace(spec, f0_std=50.0), 50_000)\n"
            "LOADED()\n")
    assert scipy_modules_after(code) == ["[]", "[]", "[]"]


def test_the_stages_run_on_numpy_alone(tmp_path):
    """synth, with its default jittered classes, then the five stages.  A
    stage that imported scipy.fft, say, would cost audio-250k about 21 MB of
    peak RSS; here its import raises ImportError."""
    corpus = tmp_path / "corpus"
    code = ("sys.meta_path.insert(0, NO_SCIPY)\n"
            "from usvpipe import synth\n"
            "from usvpipe.cli import main\n"
            "assert all(spec['f0_std'] > 0 for spec in "
            "synth.SEPARABLE_CLASS_SPECS.values())\n"
            f"print([main(['synth', '--out', {str(corpus)!r}, '--seed', '1',\n"
            "              '--emitters', '3', '--per-class', '3'])]\n"
            f"      + [main([stage, '--config', {str(corpus / 'config.json')!r}])\n"
            "         for stage in ('extract', 'partition', 'train-eval', 'table1',\n"
            "                       'export-spectrograms')])\n"
            "LOADED()\n")
    assert scipy_modules_after(code)[-2:] == ["[0, 0, 0, 0, 0, 0]", "[]"]
