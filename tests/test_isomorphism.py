"""The type-3 decision: the generator-image isomorphism search between two
simple minimal ideals, checked under basis permutations, random changes of
basis and against a brute force over GL_d(GF(p))."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin, oracle
from liestruct.algebra import (
    LieAlgebra,
    center,
    core,
    direct_sum,
    is_subalgebra,
    quotient_algebra,
)
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, invert_matrix, unit_vec
from liestruct.primitive import (
    NOT_PRIMITIVE,
    TYPE3,
    classify_primitive,
    isomorphism_search,
)

from test_socle import natural_module


def permute_basis(L: LieAlgebra, perm: list) -> LieAlgebra:
    """L on the reordered basis e'_a = e_perm[a]."""
    n = L.dim
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = L.basis_bracket(perm[a], perm[b])
            table[(a, b)] = tuple(w[perm[k]] for k in range(n))
    return LieAlgebra(L.field, n, table)


def transport(A: LieAlgebra, g: Matrix) -> LieAlgebra:
    """The algebra g.A, with [x, y] = g[g^-1 x, g^-1 y]_A, so that g is an
    isomorphism A -> g.A."""
    F, n = A.field, A.dim
    ginv = invert_matrix(g)
    table = {
        (i, j): g.apply(A.bracket(ginv.apply(unit_vec(F, n, i)), ginv.apply(unit_vec(F, n, j))))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra(F, n, table)


def is_isomorphism(A: LieAlgebra, B: LieAlgebra, T: Matrix) -> bool:
    F, n = A.field, A.dim
    if invert_matrix(T) is None:
        return False
    return all(
        T.apply(A.bracket(unit_vec(F, n, i), unit_vec(F, n, j)))
        == B.bracket(T.apply(unit_vec(F, n, i)), T.apply(unit_vec(F, n, j)))
        for i in range(n)
        for j in range(n)
    )


def assert_certified_type3(L: LieAlgebra):
    w = classify_primitive(L)
    assert w.verdict == TYPE3 and w.status.certified
    U = w.common_complement
    assert is_subalgebra(L, U) and core(L, U).is_zero()
    for M in w.minimal_ideals:
        assert U.intersect(M).is_zero() and U.sum(M).is_full()


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "gf3"])
def test_sl2_plus_sl2_is_type3_under_basis_permutations(field):
    for seed in range(24):
        perm = list(range(6))
        random.Random(f"type3:{seed}").shuffle(perm)
        assert_certified_type3(permute_basis(builtin("sl2_plus_sl2", field), perm))


def test_type3_over_gf3_does_not_reach_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was asked")

    monkeypatch.setattr(oracle, "primitive_bf", refuse)
    for seed in range(8):
        perm = list(range(6))
        random.Random(f"oracle:{seed}").shuffle(perm)
        assert_certified_type3(permute_basis(builtin("sl2_plus_sl2", GF(3)), perm))


def sl3_mod_center() -> LieAlgebra:
    """psl(3) over GF(3): sl(3) has the scalars in characteristic 3, and the
    quotient by them is simple of dimension 7."""
    units = []
    for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
        m = [0] * 9
        m[3 * i + j] = 1
        units.append(m)
    sl3 = natural_module(3, 3, units).algebra
    assert sl3.dim == 8
    return quotient_algebra(sl3, center(sl3)).algebra


def test_two_non_isomorphic_simple_ideals_are_not_primitive():
    L = direct_sum(builtin("sl2", GF(3)), sl3_mod_center())
    w = classify_primitive(L)
    assert w.verdict == NOT_PRIMITIVE and w.status.certified
    assert w.reason == "the two simple minimal ideals are not isomorphic"
    assert sorted(M.dim for M in w.minimal_ideals) == [3, 7]


def _invertible(p: int, d: int):
    """Every invertible d x d matrix over GF(p) is P L U with P a
    permutation, L unit lower triangular and U upper triangular with a
    nonzero diagonal."""
    perm = st.permutations(list(range(d)))
    entry = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    return st.tuples(
        perm,
        st.lists(entry, min_size=d * d, max_size=d * d),
        st.lists(entry, min_size=d * d, max_size=d * d),
        st.lists(unit, min_size=d, max_size=d),
    ).map(lambda t: _plu(GF(p), d, *t))


def _plu(F, d, perm, lower, upper, diag):
    P = Matrix(F, [unit_vec(F, d, perm[i]) for i in range(d)])
    Lo = Matrix(F, [[lower[i * d + j] if j < i else int(i == j) for j in range(d)] for i in range(d)])
    Up = Matrix(F, [[upper[i * d + j] if j > i else (diag[i] if i == j else 0) for j in range(d)] for i in range(d)])
    return P.matmul(Lo).matmul(Up)


SMALL = ("ab(1)", "ab(2)", "ab(3)", "r2", "heis", "sl2")


@st.composite
def small_algebras(draw):
    """Corpus algebras of dimension at most 3, and commutator closures of
    traceless 2 x 2 or strictly upper triangular 3 x 3 matrices (inside
    sl(2) and n(3), so of dimension at most 3)."""
    p = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        names = [n for n in SMALL if p == 3 or n != "sl2"]
        return builtin(draw(st.sampled_from(names)), GF(p))
    x = st.integers(0, p - 1)
    if draw(st.booleans()):
        shape = st.tuples(x, x, x).map(lambda t: (t[0], t[1], t[2], -t[0] % p))
        n = 2
    else:
        shape = st.tuples(x, x, x).map(lambda t: (0, t[0], t[1], 0, 0, t[2], 0, 0, 0))
        n = 3
    return natural_module(p, n, draw(st.lists(shape, min_size=1, max_size=3))).algebra


@st.composite
def algebra_and_basis_change(draw):
    A = draw(small_algebras())
    g = draw(_invertible(A.field.p, A.dim)) if A.dim else Matrix(A.field, [])
    return A, g


@given(algebra_and_basis_change())
@settings(max_examples=150, deadline=None)
def test_search_finds_an_isomorphism_after_a_change_of_basis(case):
    A, g = case
    B = transport(A, g)
    T = isomorphism_search(A, B)[0]
    assert T is not None and is_isomorphism(A, B, T)


def brute_force_isomorphic(A: LieAlgebra, B: LieAlgebra) -> bool:
    """Try every d x d matrix over GF(p), in plain integer arithmetic."""
    p, d = A.field.p, A.dim
    if d != B.dim:
        return False
    bra = {(i, j): A.basis_bracket(i, j) for i in range(d) for j in range(d)}
    brb = {(i, j): B.basis_bracket(i, j) for i in range(d) for j in range(d)}

    def bracket_b(u, v):
        out = [0] * d
        for (i, j), w in brb.items():
            c = u[i] * v[j] % p
            if c:
                for k in range(d):
                    out[k] = (out[k] + c * w[k]) % p
        return out

    for entries in itertools.product(range(p), repeat=d * d):
        cols = [entries[k * d : (k + 1) * d] for k in range(d)]  # image of e_k

        def image(w):
            return [sum(w[k] * cols[k][r] for k in range(d)) % p for r in range(d)]

        if all(image(bra[i, j]) == bracket_b(cols[i], cols[j]) for i in range(d) for j in range(i + 1, d)):
            if invert_matrix(Matrix.from_columns(GF(p), cols)) is not None:
                return True
    return False


def r2_plus_ab1(F):
    return direct_sum(builtin("r2", F), builtin("ab(1)", F))


@pytest.mark.parametrize(
    "a,b",
    [("sl2", "heis"), ("heis", "ab(3)"), ("r2+ab(1)", "heis"), ("r2", "ab(2)")],
)
def test_search_reports_an_exhaustive_miss_on_non_isomorphic_pairs(a, b):
    F = GF(3)

    def make(name):
        return r2_plus_ab1(F) if name == "r2+ab(1)" else builtin(name, F)

    A, B = make(a), make(b)
    assert not brute_force_isomorphic(A, B)
    assert isomorphism_search(A, B) == (None, True)
    assert isomorphism_search(B, A) == (None, True)


@pytest.mark.parametrize("p", [2, 3])
def test_search_agrees_with_brute_force_on_small_algebras(p):
    F = GF(p)
    algebras = [builtin(n, F) for n in SMALL if p == 3 or n != "sl2"] + [r2_plus_ab1(F)]
    for A, B in itertools.combinations_with_replacement(algebras, 2):
        if A.dim != B.dim:
            continue
        T, complete = isomorphism_search(A, B)
        assert complete
        assert (T is not None) == brute_force_isomorphic(A, B)
        assert T is None or is_isomorphism(A, B, T)
