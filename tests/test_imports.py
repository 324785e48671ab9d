"""Every name a usvpipe module imports is used in that module.

No linter ships with the toolchain, so this parses each module with ast: an
imported name that no expression, annotation or quoted annotation of the
module reads is reported with its module.  Every stage process imports
usvpipe.cli, so it must load no scipy: importing scipy.signal alone takes
about a second.
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


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(usvpipe.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, usvpipe.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"
