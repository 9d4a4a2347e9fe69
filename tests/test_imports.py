"""Every name a `viewsched` module imports is used in that module, and no
module loads SciPy.

No linter is installed, so this scans each module's syntax tree: a name an
import binds must be read somewhere in the module, or be re-exported through
the package's `__all__`. The tracer-only imports are the one exception.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import viewsched

PACKAGE = Path(viewsched.__file__).parent

# perfbench's tracer wraps these as attributes of the importing module, so
# each import exists only to be traced; none is called there
TRACED_ONLY = {
    ("cli", "evaluate_frame"),
    ("cli", "summarize"),
    ("simulator", "distribution"),
    ("simulator", "evaluate_frame"),
    ("simulator", "forecast_all"),
}


def _imported(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used(tree):
    """Every name the module reads, plus the names its `__all__` re-exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text("utf-8"))
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_a_module_uses_every_name_it_imports(path):
    unused = [(name, line) for name, line in unused_imports(path)
              if (path.stem, name) not in TRACED_ONLY]
    assert unused == []


def test_the_traced_only_imports_are_still_imported_and_unused():
    # a name that leaves this list's module, or gets a caller there, leaves the list
    found = {(path.stem, name) for path in PACKAGE.glob("*.py")
             for name, _ in unused_imports(path)}
    assert found == TRACED_ONLY


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, List\n"
        "from json import dumps as to_json\n"
        "def f(x: List[int]) -> None:\n"
        "    return os.path.join(x, 'Any', 'to_json')\n"
    )
    assert unused_imports(module) == [("Any", 3), ("to_json", 4)]


def test_no_module_loads_scipy():
    # the runtime needs NumPy alone: importing `scipy.optimize` costs every
    # process about 44 MB of resident memory (SciPy 1.17); SciPy serves only
    # as the tests' oracle
    modules = sorted(f"viewsched.{path.stem}".removesuffix(".__init__")
                     for path in PACKAGE.glob("*.py"))
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]"
