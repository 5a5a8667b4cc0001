"""The oracle's enumeration, extremal scans and complement and supplement
filters, diffed against the literal definitions they replaced: the
enumeration by the loop that built every candidate as a ``Subspace`` and
tested each bracket with ``Subspace.contains``, maximal subalgebras by
scanning every proper subalgebra, minimal ideals by scanning every ideal,
the module socle over all spins, complements by sum and intersection,
supplements by sum; ``Subspace.intersect`` against the kernel
construction with three eliminations, and ``Subspace.contains_space``,
which refuses on pivot sets first, against the sum.  The scan references
scan the subalgebras that ``enum_structures`` lists, once the enumeration
itself has matched its reference.  Tuples are compared with their order.

The oracle reads each quotient L/I through the maximal subalgebras and
ideals of L that contain I.  Those readings are diffed against the code that
built the quotient table with ``quotient_algebra`` and enumerated it again:
the Frattini flag of a factor, the socle factors and primitive types of the
quotients by maximal cores, and the phi-freeness and socle of L/I for every
ideal I, crowns included."""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.algebra import brackets_inside, core, is_ideal, quotient_algebra
from liestruct.chief import chief_series, chief_series_variants, classify_factor
from liestruct.crowns import all_crowns
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, Subspace, lin_comb, rref_solve, unit_vec, vec_scale
from liestruct.modules import _nonzero_vectors, adjoint_module, spin
from liestruct.oracle import (
    EnumBudget,
    _maximal_cores,
    _minimal_above,
    complements_bf,
    enum_structures,
    factor_is_frattini_bf,
    frattini_ideal_bf,
    iter_subspaces,
    minimal_ideals_bf,
    oracle_check,
    primitive_bf,
    socle_bf,
    subspace_count,
    supplements_bf,
)
from liestruct.primitive import TYPE1, TYPE2, TYPE3

from conftest import CORPUS_GF2, CORPUS_GF3
from test_isomorphism import permute_basis
from test_larger_primes import matrix_units
from test_memo import borel3_over_gf3
from test_socle import matrix_algebra_modules

FINITE_CORPUS = [(name, 2) for name in CORPUS_GF2] + [(name, 3) for name in CORPUS_GF3]
SRC = Path(__file__).resolve().parents[1] / "src" / "liestruct"


def iter_subspaces_ref(F, n):
    """The generator that built every row list and reduced it mod p."""
    p = F.p
    yield Subspace.zero(F, n)
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_positions = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for assignment in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), val in zip(free_positions, assignment):
                    rows[r][c] = val
                basis = tuple(tuple(x % p for x in row) for row in rows)
                yield Subspace(F, n, basis, tuple(pivots))


def enum_structures_ref(L):
    """(subalgebras, ideals, maximal subalgebras) by the loop that tested
    every bracket with ``Subspace.contains``."""
    F = L.field
    subalgebras = []
    ideals = []
    for U in iter_subspaces_ref(F, L.dim):
        closed = True
        for i in range(U.dim):
            for j in range(i + 1, U.dim):
                if not U.contains(L.bracket(U.basis[i], U.basis[j])):
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        subalgebras.append(U)
        ideal = True
        for bvec in U.basis:
            for i in range(L.dim):
                if not U.contains(L.bracket(unit_vec(F, L.dim, i), bvec)):
                    ideal = False
                    break
            if not ideal:
                break
        if ideal:
            ideals.append(U)
    return tuple(subalgebras), tuple(ideals), maximals_ref(L, subalgebras)


def intersect_ref(U, V):
    """The kernel construction: solve a u = b v across the two bases, then
    recombine and re-reduce."""
    F = U.field
    if U.is_zero() or V.is_zero():
        return Subspace.zero(F, U.ambient_dim)
    if U.is_full():
        return V
    if V.is_full():
        return U
    minus_one = F.neg(F.one())
    cols = list(U.basis) + [vec_scale(F, minus_one, v) for v in V.basis]
    _, _, _, null = rref_solve(Matrix.from_columns(F, cols))
    vecs = [lin_comb(F, coeffs[: U.dim], U.basis) for coeffs in null.basis]
    return Subspace.from_vectors(F, U.ambient_dim, vecs)


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
    assert (
        subs,
        structures.ideals,
        structures.maximal_subalgebras,
    ) == enum_structures_ref(L)
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


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("p", [2, 3])
def test_subspaces_are_enumerated_in_the_reference_order(n, p):
    F = GF(p)
    new = [(U.basis, U.pivots) for U in iter_subspaces(F, n)]
    assert new == [(U.basis, U.pivots) for U in iter_subspaces_ref(F, n)]


PINNED_CASES = [
    (name, 3, perm)
    for name in ("h3_plus_r2", "aff_sl2")
    for perm in (None, (1, 0, 4, 3, 2), (0, 3, 4, 1, 2))
] + [
    ("ab(3)", 5, None),
    ("heis", 5, None),
    ("n4", 2, None),
    ("n4", 2, (3, 5, 4, 0, 2, 1)),
]


@pytest.mark.parametrize("name,p,perm", PINNED_CASES)
def test_the_pinned_enumeration_matches_the_reference(name, p, perm):
    """The enumeration that settles each pattern's last row once per prefix
    from the prefix's own brackets lists the same subalgebras, ideals and
    maximal subalgebras, in the same order, as the loop that tested every
    candidate.  The permuted bases of h3_plus_r2 pin last rows that are not
    row choices of their pattern, and n4 over GF(2) has prefixes whose
    brackets pin two different rows."""
    L = matrix_units(p, 4, strict=True) if name == "n4" else builtin(name, GF(p))
    if perm:
        L = permute_basis(L, list(perm))
    structures = enum_structures(L, EnumBudget(max_field_order=5))
    assert (
        structures.subalgebras,
        structures.ideals,
        structures.maximal_subalgebras,
    ) == enum_structures_ref(L)


@st.composite
def subspace_pairs(draw):
    """Two subspaces of F^n with up to two spanning vectors in common, over
    Q (entries of height at most 3) or GF(2), GF(3), GF(5)."""
    F = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = draw(st.integers(1, 5))
    if F is QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        scalar = st.integers(0, F.p - 1)
    vectors = st.lists(st.lists(scalar, min_size=n, max_size=n), max_size=3)
    shared = draw(st.lists(st.lists(scalar, min_size=n, max_size=n), max_size=2))
    U = Subspace.from_vectors(F, n, shared + draw(vectors))
    V = Subspace.from_vectors(F, n, shared + draw(vectors))
    return U, V


@given(subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_intersect_matches_the_kernel_construction(pair):
    U, V = pair
    W, ref = U.intersect(V), intersect_ref(U, V)
    assert (W.basis, W.pivots) == (ref.basis, ref.pivots)
    assert W == V.intersect(U)


@given(subspace_pairs())
@settings(max_examples=300, deadline=None)
def test_contains_space_matches_the_sum_definition(pair):
    U, V = pair
    W = U.intersect(V)
    assert U.contains_space(W) and V.contains_space(W)
    assert U.contains_space(V) == (U.sum(V) == U)
    assert V.contains_space(U) == (V.sum(U) == V)


def test_complements_need_b_inside_a():
    L = builtin("heis", GF(3))
    A, B = L.span([(1, 0, 0)]), L.span([(0, 0, 1)])
    with pytest.raises(ValueError):
        complements_bf(L, A, B)


def frattini_factor_ref(L, A, B):
    """A/B inside the Frattini ideal of the quotient table L/B."""
    qa = quotient_algebra(L, B)
    phi = frattini_ideal_bf(qa.algebra)
    return qa.lift_space(phi).contains_space(A)


def maximal_cores_ref(L):
    """(M, core of M, socle factor or None, type of L/core(M)) with the
    socle factor and the type read on the quotient table L/core(M)."""
    out = []
    for M in enum_structures(L).maximal_subalgebras:
        ML = core(L, M)
        qa = quotient_algebra(L, ML)
        qmins = minimal_ideals_bf(qa.algebra)
        socle_factor = (
            classify_factor(L, qa.lift_space(qmins[0]), ML) if len(qmins) == 1 else None
        )
        out.append((M, ML, socle_factor, primitive_bf(qa.algebra).verdict))
    return out


def quotient_readings_ref(L, I):
    """(minimal ideals lifted, phi-free, socle lifted) of the quotient
    table L/I, as the crown check read them."""
    qa = quotient_algebra(L, I)
    phi = frattini_ideal_bf(qa.algebra)
    mins = [qa.lift_space(W) for W in minimal_ideals_bf(qa.algebra)]
    soc_here = L.zero_space()
    for W in mins:
        soc_here = soc_here.sum(W)
    return set(mins), phi.is_zero(), soc_here


DIFF_ALGEBRAS = {
    **{(name, p): (lambda name=name, p=p: builtin(name, GF(p))) for name, p in FINITE_CORPUS},
    ("borel3", 3): borel3_over_gf3,
    ("n4", 3): lambda: matrix_units(3, 4, strict=True),
}


@pytest.mark.parametrize("name,p", list(DIFF_ALGEBRAS))
def test_quotients_read_through_l_match_the_quotient_tables(name, p):
    L = DIFF_ALGEBRAS[(name, p)]()
    assert oracle_check(L) == []
    series = chief_series(L)
    pairs = [(f.A, f.B) for S in chief_series_variants(L) for f in S.factors]
    pairs += [(c.C, c.R) for c in all_crowns(L, series)]
    for A, B in pairs:
        assert factor_is_frattini_bf(L, A, B) == frattini_factor_ref(L, A, B)
    for (M, ML, mins, socle_factor), (M0, ML0, socle_factor0, verdict) in zip(
        _maximal_cores(L, EnumBudget()), maximal_cores_ref(L), strict=True
    ):
        assert (M, ML, socle_factor) == (M0, ML0, socle_factor0)
        assert len(mins) in (1, 2)
        if len(mins) == 2:
            assert verdict == TYPE3
        else:
            assert verdict == (TYPE1 if brackets_inside(L, mins[0], mins[0], ML) else TYPE2)
    for I in enum_structures(L).ideals:
        mins = _minimal_above(L, I)
        phi_free = not any(factor_is_frattini_bf(L, W, I) for W in mins)
        socle = L.span([x for W in mins for x in W.basis])
        assert (set(mins), phi_free, socle) == quotient_readings_ref(L, I)


def test_the_oracle_never_names_a_quotient_algebra():
    """Every quotient is read on the enumeration of L itself."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "oracle.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"quotient_algebra", "QuotientAlgebra"}
