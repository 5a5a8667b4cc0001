"""The canonical rational scalar: over Q an integral value is an ``int`` and
any other a ``Fraction`` with denominator > 1, so integral arithmetic runs
on native integers.  Checked at each true division of the library (with
operands that do not divide), by a static guard that no ``int / int`` can
produce a float, and on whole reports in bases with half-integer entries."""

import ast
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import liestruct
from liestruct import builtin
from liestruct.chief import chief_series, solvable_radical
from liestruct.cli import build_report
from liestruct.corpus import load, save
from liestruct.crowns import all_crowns
from liestruct.fields import QQ
from liestruct.linalg import Matrix, invert_matrix
from liestruct.modules import LModule, spin
from liestruct.polys import charpoly, is_irreducible

from conftest import CORPUS_Q
from test_isomorphism import transport
from test_kernels import canonical


def all_canonical(rows) -> bool:
    return all(canonical(QQ, row) for row in rows)


# --- the true divisions ------------------------------------------------------


def test_inverse_of_an_int():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(-1, 3)) == -3 and type(QQ.inv(Fraction(-1, 3))) is int


def test_spin_at_pivot_three():
    # one generator sending e0 to 3 e1 + e2 and killing e1, e2
    M = LModule(builtin("ab(1)", QQ), [Matrix(QQ, [[0, 0, 0], [3, 0, 0], [1, 0, 0]])])
    S = spin(M, (1, 0, 0))
    assert S.basis == ((1, 0, 0), (0, 1, Fraction(1, 3))) and all_canonical(S.basis)
    S = spin(M, (0, 3, 6))
    assert S.basis == ((0, 1, 2),) and all_canonical(S.basis)


def test_charpoly_through_a_hessenberg_step_dividing_by_two():
    # the step clears row 2 with u = 1/2; det(t - M) = t^3 - 3t - 1
    f = charpoly(Matrix(QQ, [[0, 1, 0], [2, 0, 1], [1, 1, 0]]))
    assert f == [-1, -3, 0, 1] and all(type(c) is int for c in f)
    f = charpoly(Matrix(QQ, [[0, 1], [2, 1]]))  # no step: t^2 - t - 2
    assert f == [-2, -1, 1] and all(type(c) is int for c in f)


def test_quartic_with_leading_coefficient_two():
    assert is_irreducible(QQ, [2, 0, 0, 0, 2])  # 2 (t^4 + 1)
    assert not is_irreducible(QQ, [4, 0, 6, 0, 2])  # 2 (t^2 + 1)(t^2 + 2)


# --- no int / int in the library ---------------------------------------------


def _is_fraction_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"


def unguarded_divisions(source: str, helper: str = "") -> list:
    """The true divisions of ``source`` (``/`` and ``/=``) with no
    ``Fraction(...)`` call as an operand, outside the function ``helper``."""
    tree = ast.parse(source)
    inside = {
        id(n)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == helper
        for n in ast.walk(fn)
    }
    bad = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.value,)
        else:
            continue
        if not any(map(_is_fraction_call, operands)):
            bad.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(bad)]


def test_the_guard_flags_int_division():
    assert unguarded_divisions("y = x / a\nx /= 2\n") == ["1: x / a", "2: x /= 2"]
    assert unguarded_divisions("y = Fraction(x) / a\nz = 1 / Fraction(a)\n") == []
    assert unguarded_divisions("def div_q(a, b):\n    return a / b\n", "div_q") == []


def test_every_true_division_has_a_fraction_operand():
    """``int / int`` is a float; over Q a division goes through
    ``fields.div_q`` or has a ``Fraction`` operand."""
    src = Path(liestruct.__file__).parent
    bad = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in unguarded_divisions(
            path.read_text(), "div_q" if path.name == "fields.py" else ""
        )
    ]
    assert bad == []


# --- whole reports in half-integer bases -------------------------------------

HALVES = (-1, 0, 1, Fraction(1, 2), Fraction(-1, 2))


@st.composite
def half_rebased_corpus_algebras(draw):
    """A corpus algebra in a random basis with entries in {-1, 0, 1, +-1/2}."""
    L = builtin(draw(st.sampled_from(CORPUS_Q)), QQ)
    n = L.dim
    entries = draw(st.lists(st.sampled_from(HALVES), min_size=n * n, max_size=n * n))
    g = Matrix(QQ, [entries[i * n : (i + 1) * n] for i in range(n)])
    assume(invert_matrix(g) is not None)
    return transport(L, g)


def _has_float(doc) -> bool:
    if isinstance(doc, float):
        return True
    if isinstance(doc, dict):
        return any(map(_has_float, doc.values()))
    if isinstance(doc, list):
        return any(map(_has_float, doc))
    return False


@given(half_rebased_corpus_algebras())
@settings(max_examples=30, deadline=None)
def test_reports_in_half_integer_bases_are_canonical(L):
    assert all_canonical(L.table.values())
    assert load(save(L)) == L
    report = build_report(L, None)
    assert not _has_float(json.loads(json.dumps(report)))
    series = chief_series(L)
    spaces = list(series.chain)
    for f in series.factors:
        spaces += [f.A, f.B, f.centralizer]
    for c in all_crowns(L, series):
        spaces += [c.C, c.R]
    spaces.append(solvable_radical(L)[0])
    for U in spaces:
        assert all_canonical(U.basis)
