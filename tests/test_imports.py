"""Every name a library module imports is used in that module, and every
module-level function or class is named somewhere in the library outside
its own definition: a private one always, a public one unless an
allow-list says why it stays.

Each ``src/liestruct/*.py`` but ``__init__.py`` is parsed with ``ast``.  A
name counts as used when it is read anywhere in the module, including
inside a string annotation; ``from __future__ import annotations`` is
exempt.  A private name (``_name``) counts as named when some module of
``src/liestruct``, ``__init__.py`` included, reads it, reads it as an
attribute or imports it, other than from inside the name's own definition
(a helper that only calls itself is dead).  A public name counts as named
in the same way, so an export from ``__init__.py`` or a call from ``cli``
names it.  A route that is deleted must take its imports and its helpers
with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liestruct"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def names_in(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names read, read as an attribute or imported anywhere in ``tree``
    but inside the subtree ``skip``, string annotations included."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                todo.append(ast.parse(ann.value, mode="eval"))
        todo.extend(ast.iter_child_nodes(node))
    return names


def unnamed_definitions(trees: dict, wanted) -> list:
    """``module.name`` for each module-level function or class of ``trees``
    (module name -> ``ast.Module``) whose name ``wanted`` accepts and that
    no tree names outside the name's own definition."""
    named = {m: names_in(tree) for m, tree in trees.items()}
    dead = []
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not wanted(node.name):
                continue
            elsewhere = (named[o] for o in trees if o != m)
            if node.name not in names_in(tree, skip=node) and not any(
                node.name in names for names in elsewhere
            ):
                dead.append(f"{m}.{node.name}")
    return dead


def dead_private_names(trees: dict) -> list:
    return unnamed_definitions(trees, lambda name: name.startswith("_") and not name.startswith("__"))


def dead_public_names(trees: dict) -> list:
    return unnamed_definitions(trees, lambda name: not name.startswith("_"))


# Public names that no library module names, each with the reason it stays.
UNNAMED_PUBLIC = {
    "oracle.iter_subspaces": "perfbench/spans.py counts its calls until the benchmark drops that counter",
    "modules.enveloping_basis": "perfbench/spans.py counts its calls until the benchmark drops that counter",
    "oracle.socle_bf": "an exhaustive definition, and those belong in the oracle",
    "oracle.frattini_ideal_bf": "an exhaustive definition, and those belong in the oracle",
}


def test_every_private_helper_is_named_outside_its_definition():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    dead = dead_private_names(trees)
    assert not dead, f"private helpers no library module names: {', '.join(dead)}"


def test_a_dead_private_helper_is_found():
    trees = {
        "a": ast.parse(
            "def _called():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Annotation:\n"
            "    pass\n"
            "def _attribute():\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def _unused():\n"
            "    pass\n"
            "def f(x: '_Annotation'):\n"
            "    return _called()\n"
        ),
        "b": ast.parse("from . import a\nfrom .a import _imported\ng = a._attribute\n"),
    }
    assert sorted(dead_private_names(trees)) == ["a._recursive", "a._unused"]


def test_every_public_name_is_named_or_allowed():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    dead = set(dead_public_names(trees))
    unlisted = sorted(dead - set(UNNAMED_PUBLIC))
    assert not unlisted, f"public names no library module names or exports: {', '.join(unlisted)}"
    stale = sorted(set(UNNAMED_PUBLIC) - dead)
    assert not stale, f"allow-listed names that are named now, or gone: {', '.join(stale)}"


def test_a_dead_public_name_is_found():
    trees = {
        "__init__": ast.parse("from .a import exported\n"),
        "a": ast.parse(
            "def exported():\n"
            "    pass\n"
            "def used_here():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Unused:\n"
            "    pass\n"
            "def called_by_cli():\n"
            "    pass\n"
            "def _private():\n"
            "    return used_here()\n"
        ),
        "cli": ast.parse("from .a import called_by_cli\n"),
    }
    assert sorted(dead_public_names(trees)) == ["a.Unused", "a.recursive"]
