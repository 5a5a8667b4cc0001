"""The oracle's extremal scans and its complement and supplement filters,
diffed against the literal definitions they replaced: maximal subalgebras
by scanning every proper subalgebra, minimal ideals by scanning every
ideal, the module socle over all spins, complements by sum and
intersection, supplements by sum.  Each reference scans the subalgebras
that ``enum_structures`` lists, since the enumeration itself is not in
question here.  Tuples are compared with their order."""

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import is_ideal, quotient_algebra
from liestruct.chief import chief_series
from liestruct.crowns import all_crowns
from liestruct.fields import GF
from liestruct.linalg import Subspace
from liestruct.modules import _nonzero_vectors, adjoint_module, spin
from liestruct.oracle import (
    complements_bf,
    enum_structures,
    minimal_ideals_bf,
    socle_bf,
    subspace_count,
    supplements_bf,
)

from conftest import CORPUS_GF2, CORPUS_GF3
from test_socle import matrix_algebra_modules

FINITE_CORPUS = [(name, 2) for name in CORPUS_GF2] + [(name, 3) for name in CORPUS_GF3]


def maximals_ref(L, subs):
    proper = [U for U in subs if U.dim < L.dim]
    return tuple(
        U
        for U in sorted(proper, key=lambda U: -U.dim)
        if not any(V.dim > U.dim and V.contains_space(U) for V in proper)
    )


def minimal_ideals_ref(L, subs):
    nonzero = [I for I in subs if I.dim > 0 and is_ideal(L, I)]
    return tuple(
        I for I in nonzero if not any(J.dim < I.dim and I.contains_space(J) for J in nonzero)
    )


def socle_ref(M):
    spins = {spin(M, v) for v in _nonzero_vectors(M.field, M.dim)}
    soc = Subspace.zero(M.field, M.dim)
    for W in spins:
        if not any(V.dim < W.dim and W.contains_space(V) for V in spins):
            soc = soc.sum(W)
    return soc


def complements_ref(L, subs, A, B):
    full = L.full_space()
    return tuple(K for K in subs if K.sum(A) == full and K.intersect(A) == B)


def supplements_ref(L, subs, A, B):
    full = L.full_space()
    return tuple(
        M
        for M in subs
        if M.dim < L.dim and M.sum(A) == full and M.contains_space(B)
    )


def pairs(L):
    """Every chief-factor pair (A, B) and every crown pair (C, R) of L."""
    if L.dim == 0:
        return []
    series = chief_series(L)
    return [(f.A, f.B) for f in series.factors] + [
        (c.C, c.R) for c in all_crowns(L, series)
    ]


def assert_scans_match(L):
    structures = enum_structures(L)
    subs = structures.subalgebras
    assert structures.maximal_subalgebras == maximals_ref(L, subs)
    assert minimal_ideals_bf(L) == minimal_ideals_ref(L, subs)
    M = adjoint_module(L)
    assert socle_bf(M) == socle_ref(M)
    for A, B in pairs(L):
        assert complements_bf(L, A, B) == complements_ref(L, subs, A, B)
        assert supplements_bf(L, A, B) == supplements_ref(L, subs, A, B)


@pytest.mark.parametrize("name,p", FINITE_CORPUS)
def test_scans_match_the_definitions_on_corpus_algebras_and_quotients(name, p):
    L = builtin(name, GF(p))
    for I in enum_structures(L).ideals:
        assert_scans_match(quotient_algebra(L, I).algebra)
    for f in chief_series(L).factors:
        M = f.module()
        assert socle_bf(M) == socle_ref(M)


@given(matrix_algebra_modules())
@settings(max_examples=60, deadline=None)
def test_scans_match_the_definitions_on_matrix_algebras(M):
    """Commutator closures of random matrices: the natural module's socle
    always, the algebra's scans when it has at most 3,000 subspaces."""
    assert socle_bf(M) == socle_ref(M)
    L = M.algebra
    if subspace_count(L.dim, L.field.p) <= 3000:
        assert_scans_match(L)


def test_complements_need_b_inside_a():
    L = builtin("heis", GF(3))
    A, B = L.span([(1, 0, 0)]), L.span([(0, 0, 1)])
    with pytest.raises(ValueError):
        complements_bf(L, A, B)
