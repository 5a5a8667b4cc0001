"""Every name a library module imports is used in that module.

Each ``src/liestruct/*.py`` but ``__init__.py`` is parsed with ``ast``.  A
name counts as used when it is read anywhere in the module, including
inside a string annotation; ``from __future__ import annotations`` is
exempt.  A route that is deleted must take its imports with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liestruct"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set:
    """Names read in the module, and in its string annotations."""
    trees = [tree]
    for ann in annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_a_stale_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import itertools\n"
        "from .status import CERTIFIED, undecided\n"
        "from .chief import ChiefFactor\n"
        "def f(x: 'ChiefFactor'):\n"
        "    return CERTIFIED\n"
    )
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["itertools", "undecided"]
