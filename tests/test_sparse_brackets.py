"""The sparse bracket sum against the ``L.bracket`` loops it replaced.

``LieAlgebra._bracket_sum`` sums a b [e_i, e_j] over the nonzero entries of
two vectors straight from the sparse structure constants.  ``brackets_inside``,
``_colon_rows`` and ``bracket_spaces`` read their bases as the cached
nonzero rows of each ``Subspace`` and reduce the unreduced sums once, by
``linalg._reduce`` against W's rows; ``LieAlgebra.ad`` reads its columns
from the support of its argument.  The former bodies, one ``L.bracket`` per
basis pair, are kept here as references (``old_*``) and must give the same
verdicts, the same rows (down to the type of each scalar) and the same
spans: on every triple of ideals met by the chief series variants of the
corpora over Q, GF(2), GF(3) and GF(5), on Hypothesis semidirect sums and
on random subspaces of rebased corpus algebras.  ``L.bracket`` itself is
checked against a dense sum over the bracket table.
"""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import (
    LieAlgebra,
    _colon_rows,
    bracket_colon,
    bracket_spaces,
    brackets_inside,
    derived_series,
    lower_central_series,
)
from liestruct.chief import chief_series_variants
from liestruct.fields import GF, QQ
from liestruct.linalg import DimensionMismatch, Matrix, Subspace, unit_vec, vec

from conftest import CORPUS_GF2, CORPUS_Q
from test_bracket_constructions import colon_inputs, semidirect_sums

SRC = Path(__file__).resolve().parents[1] / "src" / "liestruct"

# ex22 needs t^2 + 1 irreducible, which it is not mod 5
CORPUS_GF5 = tuple(name for name in CORPUS_Q if name != "ex22")
FIELDS = [(QQ, CORPUS_Q), (GF(2), CORPUS_GF2), (GF(3), CORPUS_Q), (GF(5), CORPUS_GF5)]


def old_brackets_inside(L: LieAlgebra, U: Subspace, V: Subspace, W: Subspace) -> bool:
    same = U == V
    for a, u in enumerate(U.basis):
        for v in V.basis[a + 1 :] if same else V.basis:
            if not W.contains(L.bracket(u, v)):
                return False
    return True


def old_colon_rows(L: LieAlgebra, X: Subspace, Y: Subspace, W: Subspace) -> list:
    pivots = set(W.pivots)
    free = [t for t in range(L.dim) if t not in pivots]
    rows = []
    for y in Y.basis:
        cols = [W.reduce(L.bracket(x, y)) for x in X.basis]
        rows.extend(tuple(col[t] for col in cols) for t in free)
    return rows


def old_bracket_spaces(L: LieAlgebra, U: Subspace, V: Subspace) -> Subspace:
    vecs = [L.bracket(u, v) for u in U.basis for v in V.basis]
    return Subspace.from_vectors(L.field, L.dim, vecs)


def old_ad(L: LieAlgebra, a) -> Matrix:
    cols = [L.bracket(a, unit_vec(L.field, L.dim, j)) for j in range(L.dim)]
    return Matrix.from_columns(L.field, cols)


def table_bracket(L: LieAlgebra, u, v) -> tuple:
    """[u, v] summed over every basis pair of the dense table, with
    [e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0."""
    out = [0] * L.dim
    for i, j in itertools.product(range(L.dim), repeat=2):
        if i == j or not (u[i] and v[j]):
            continue
        sign = 1 if i < j else -1
        for k, c in enumerate(L.table.get((min(i, j), max(i, j)), ())):
            out[k] += sign * u[i] * v[j] * c
    return vec(L.field, out)


def typed(rows) -> list:
    return [[(x, type(x)) for x in row] for row in rows]


def assert_builders_match(L: LieAlgebra, spaces) -> None:
    spaces = list(dict.fromkeys(spaces))
    for U, V in itertools.product(spaces, repeat=2):
        assert bracket_spaces(L, U, V) == old_bracket_spaces(L, U, V)
        for W in spaces:
            assert brackets_inside(L, U, V, W) == old_brackets_inside(L, U, V, W)
            assert typed(_colon_rows(L, U, V, W)) == typed(old_colon_rows(L, U, V, W))
    for x in {x for U in spaces for x in U.basis} | set(L.full_space().basis):
        M, ref = L.ad(x), old_ad(L, x)
        assert (M, M.rows, M.cols) == (ref, ref.rows, ref.cols)
        assert typed(M.entries) == typed(ref.entries)


def series_ideals(L: LieAlgebra) -> list:
    return [I for S in chief_series_variants(L) for I in S.chain]


@pytest.mark.parametrize(
    "field, name",
    [(F, name) for F, names in FIELDS for name in names],
    ids=lambda x: str(x),
)
def test_builders_match_on_the_chief_series_ideals(field, name):
    L = builtin(name, field)
    assert_builders_match(L, series_ideals(L))


@pytest.mark.parametrize("field, names", FIELDS, ids=["q", "gf2", "gf3", "gf5"])
def test_bracket_is_the_table_sum(field, names):
    for name in names:
        L = builtin(name, field)
        units = L.full_space().basis
        samples = list(units) + [
            tuple((3 * i + 2 * s + 1) % 5 - 2 for i in range(L.dim)) for s in range(4)
        ]
        samples = [vec(field, v) for v in samples]
        for u, v in itertools.product(samples, repeat=2):
            w = L.bracket(u, v)
            assert w == table_bracket(L, u, v)
            assert [type(x) for x in w] == [type(x) for x in vec(field, w)]


@given(semidirect_sums())
@settings(max_examples=40, deadline=None)
def test_builders_match_on_semidirect_sums(sum_and_n):
    L, n = sum_and_n
    units = [unit_vec(L.field, L.dim, i) for i in range(L.dim)]
    spaces = [L.span(units[:n]), L.span(units[n:]), L.span(units[n - 1 : n + 1])]
    spaces += derived_series(L) + lower_central_series(L) + [L.zero_space()]
    assert_builders_match(L, spaces)


@given(colon_inputs())
@settings(max_examples=150, deadline=None)
def test_builders_match_on_random_subspaces(inputs):
    L, X, Y, W = inputs
    assert_builders_match(L, [X, Y, W, L.full_space()])


@pytest.mark.parametrize(
    "other", [builtin("gl2", GF(3)), builtin("sl2", GF(5))], ids=["dim", "field"]
)
def test_a_subspace_of_another_algebra_is_refused(other):
    L = builtin("sl2", GF(3))
    inside, foreign = L.full_space(), other.full_space()
    for k in range(3):
        args = [inside] * 3
        args[k] = foreign
        with pytest.raises(DimensionMismatch):
            brackets_inside(L, *args)
        with pytest.raises(DimensionMismatch):
            bracket_colon(L, *args)
        if k < 2:
            with pytest.raises(DimensionMismatch):
                bracket_spaces(L, *args[:2])


def _function_bodies(tree) -> dict:
    """Every function of a module by its qualified name (``Class.method``)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


def _sums_in_a_loop(fn) -> bool:
    """Whether ``fn`` adds into a subscript (``out[k] += ...``) inside two or
    more nested ``for`` loops: the shape of a sum over two supports."""

    def walk(node, depth):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
            if isinstance(node.op, ast.Add) and depth >= 2:
                return True
        inner = depth + isinstance(node, ast.For)
        return any(walk(child, inner) for child in ast.iter_child_nodes(node))

    return walk(fn, 0)


def test_one_function_sums_brackets_from_the_table():
    """The builders and ``ad`` call no ``.bracket(``, and the only sum over
    two supports in ``algebra`` is ``LieAlgebra._bracket_sum``."""
    functions = _function_bodies(ast.parse((SRC / "algebra.py").read_text()))
    for name in ("brackets_inside", "_colon_rows", "bracket_spaces", "section_action", "LieAlgebra.ad"):
        calls = [
            node
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "bracket"
        ]
        assert calls == [], name
    assert [name for name, fn in functions.items() if _sums_in_a_loop(fn)] == [
        "LieAlgebra._bracket_sum"
    ]
