"""Every top-level function and class of a `viewsched` module is named
somewhere else in the package.

Code that only the tests reach belongs in the tests, so this scans each
module's syntax tree: a top-level definition must be named (called, read,
imported or used as an attribute) on a line of the package outside its own
body. `OUTSIDE_ONLY` lists the exceptions.
"""

import ast
from pathlib import Path

import viewsched

PACKAGE = Path(viewsched.__file__).parent

# tests/test_acceptance.py imports these, and `collect_training_episodes` is
# a perfbench trace point; nothing in the package calls them
OUTSIDE_ONLY = {
    ("metrics", "average_precision"),
    ("simulator", "default_capability"),
    ("branches", "default_device_profile"),
    ("cli", "collect_training_episodes"),
}


def _named(tree):
    """(name, line) of every name the module reads, every attribute and every
    name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unnamed_definitions(paths):
    """(module, name) of each top-level function or class in `paths` that no
    line outside its own body names."""
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in paths}
    named = {stem: list(_named(tree)) for stem, tree in trees.items()}
    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (other != stem or line not in own)
                       for other, names in named.items() for name, line in names):
                found.append((stem, node.name))
    return found


def test_every_definition_is_named_elsewhere_in_the_package():
    # a listed definition that gets a caller in the package, or leaves it,
    # leaves the list too
    assert set(unnamed_definitions(sorted(PACKAGE.glob("*.py")))) == OUTSIDE_ONLY


def test_the_scan_finds_an_unnamed_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used(n):\n"
        "    return used(n - 1) if n else 0\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Alone:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import used\n"
        "def main():\n"
        "    return used(3)\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unnamed_definitions(paths) == [("a", "recursive"), ("a", "Alone")]
