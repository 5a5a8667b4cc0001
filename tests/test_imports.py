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

``import liestruct`` loads the algebra layer (``EAGER``) and no more: the
eager modules import only from each other outside their functions, and a
fresh interpreter that imports liestruct and loads a document has imported
none of the analysis layer (``ANALYSIS``) and none of ``typing``,
``inspect`` and ``dataclasses``.  The package
``__getattr__`` and ``__dir__`` serve the analysis layer's exports on
demand, and ``liestruct.cli`` still imports all of it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liestruct
from liestruct import builtin, save

SRC = Path(__file__).resolve().parent.parent / "src" / "liestruct"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
EAGER = {"fields", "linalg", "algebra", "status", "corpus"}
ANALYSIS = {"modules", "polys", "chief", "crowns", "primitive", "oracle"}


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


def eager_imports(tree: ast.Module):
    """(package module, line) for each relative import that runs when
    ``tree`` is imported: every one outside a function body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            for name in [node.module] if node.module else [alias.name for alias in node.names]:
                yield name.split(".")[0], node.lineno
        todo.extend(ast.iter_child_nodes(node))


def stray_imports(trees: dict) -> list:
    """``module: .target (line n)`` for each eager import of ``trees``
    (module name -> ``ast.Module``) from outside the eager layer."""
    return sorted(
        f"{m}: .{target} (line {line})"
        for m, tree in trees.items()
        for target, line in eager_imports(tree)
        if target not in EAGER
    )


def test_the_eager_layer_imports_only_itself():
    trees = {
        p.stem: ast.parse(p.read_text(), filename=str(p))
        for p in SOURCES
        if p.stem in EAGER or p.stem == "__init__"
    }
    assert len(trees) == len(EAGER) + 1
    stray = stray_imports(trees)
    assert not stray, f"the eager layer imports the analysis layer: {', '.join(stray)}"


def test_a_stray_eager_import_is_found():
    trees = {
        "a": ast.parse(
            "from .fields import Field\n"
            "from . import linalg, oracle\n"
            "from .chief import chief_series\n"
            "class C:\n"
            "    from .crowns import Crown\n"
            "def f():\n"
            "    from .modules import spin\n"
        ),
    }
    assert stray_imports(trees) == ["a: .chief (line 3)", "a: .crowns (line 5)", "a: .oracle (line 2)"]


def run_fresh(code: str) -> str:
    """The output of ``code`` run by a fresh interpreter, without ``site``
    and with ``PYTHONPATH=src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def fresh_imports(code: str) -> set:
    """The modules that a fresh interpreter imports while it runs ``code``."""
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))\n"
    return set(run_fresh(probe).split())


def test_import_and_load_leave_the_analysis_layer_unloaded():
    doc = save(builtin("sl2"))
    new = fresh_imports(f"import liestruct\nliestruct.load({doc!r})")
    assert {f"liestruct.{m}" for m in EAGER} <= new
    assert not {f"liestruct.{m}" for m in ANALYSIS} & new
    assert not {"typing", "inspect", "dataclasses"} & new


def test_importing_cli_loads_the_analysis_layer():
    assert {f"liestruct.{m}" for m in ANALYSIS} <= fresh_imports("import liestruct.cli")


def exports() -> dict:
    """Each name an import statement of ``__init__.py`` binds, with the
    module it comes from."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


# Each sets ``missing`` to the exports that a cold package does not serve
# by attribute access, by ``dir`` or by a star import.
EXPORT_PROBES = {
    "getattr": "missing = [n for n, m in EXPORTS.items()"
    " if getattr(liestruct, n) is not getattr(importlib.import_module('liestruct.' + m), n)]",
    "dir": "missing = sorted(set(EXPORTS) - set(dir(liestruct)))",
    "star": "ns = {}\nexec('from liestruct import *', ns)\nmissing = sorted(set(EXPORTS) - set(ns))",
}


@pytest.mark.parametrize("probe", EXPORT_PROBES)
def test_every_export_resolves_from_a_cold_package(probe):
    assert set(exports().values()) == EAGER | ANALYSIS - {"polys"}
    code = f"import importlib, json, liestruct\nEXPORTS = {exports()!r}\n{EXPORT_PROBES[probe]}\nprint(json.dumps(missing))"
    assert json.loads(run_fresh(code)) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        liestruct.no_such_name
    assert not hasattr(liestruct, "no_such_name")


@pytest.mark.parametrize("module", sorted(ANALYSIS) + ["cli"])
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """``from . import modules`` in a half-imported ``primitive`` asks the
    package for ``modules``; that must import the one module, not start a
    load of the layer that would import ``primitive`` again."""
    for code in (f"import liestruct.{module}", f"from liestruct import {module}"):
        run_fresh(code)


@pytest.mark.parametrize("module", sorted(ANALYSIS))
def test_an_analysis_module_resolves_as_an_attribute(module):
    code = f"import sys, liestruct\nprint(liestruct.{module} is sys.modules['liestruct.{module}'])"
    assert run_fresh(code).split() == ["True"]


def test_a_failed_load_raises_its_error_again():
    """A load that fails part way leaves no half-bound layer behind: the
    next access retries it and raises the real error, or succeeds."""
    code = (
        "import sys, liestruct\n"
        "class RefuseOnce:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'liestruct.oracle':\n"
        "            sys.meta_path.remove(self)\n"
        "            raise ImportError('refused')\n"
        "sys.meta_path.insert(0, RefuseOnce())\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        print(liestruct.prefrattini_bf.__module__)\n"
        "    except ImportError as e:\n"
        "        print(e)\n"
    )
    assert run_fresh(code).split() == ["refused", "liestruct.oracle"]
