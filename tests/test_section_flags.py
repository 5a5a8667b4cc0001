"""Chief factors and crown denominators against the code they replaced.

A chief factor now keeps only its abelian flag and centralizer and reads
its supplemented, complemented and Frattini flags, and its complement
witness, from the section's splitting certificate when asked; the former
classification ran the splitting test on every section it classified.
``denominator_intersection`` takes the common kernel of the hom maps as one
nullspace, where it intersected one kernel per map, and reads the section
N0/B in its own coordinates, where it read it inside the section C/B of the
centralizer.  The former bodies are kept here as references (``old_*``)
and must give identical values: every chief-series section and every crown
section of the corpora over Q, GF(2) and GF(3), Hypothesis semidirect sums
F^n + L and every supplemented abelian series factor.  Hom spaces between
chief-factor modules and socle summands, moved to a random basis, are
checked against the dense equivariance equations of ``test_module_sections``.
"""

import random
from collections import namedtuple
from typing import Optional

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import LieAlgebra, brackets_inside, factor_centralizer
from liestruct.chief import chief_series, classify_factor
from liestruct.crowns import _abelian_denominator_data, all_crowns, denominator_intersection
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, Subspace, invert_matrix, lin_comb, rref_solve, unit_vec
from liestruct.modules import (
    LModule,
    adjoint_module,
    factor_module,
    hom_space,
    restrict_module,
    socle_and_minimal_ideals,
    socle_decomposition,
    split_abelian_extension,
)

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q
from test_bracket_constructions import semidirect_sums, series_sections
from test_module_sections import assert_homs_match

CORPORA = (
    [pytest.param(n, QQ, id=f"{n}-q") for n in CORPUS_Q]
    + [pytest.param(n, GF(2), id=f"{n}-gf2") for n in CORPUS_GF2]
    + [pytest.param(n, GF(3), id=f"{n}-gf3") for n in CORPUS_GF3]
)

# the fields of the former ChiefFactor that the section classification set
OldFactor = namedtuple(
    "OldFactor",
    "L A B abelian centralizer supplemented complemented frattini complement_witness",
)


def old_classify_section(L: LieAlgebra, A: Subspace, B: Subspace) -> OldFactor:
    abelian = brackets_inside(L, A, A, B)
    cent = factor_centralizer(L, A, B)
    if abelian:
        cert = split_abelian_extension(L, A, B)
        complemented = cert is not None
        witness = cert.complement if cert else None
        return OldFactor(
            L, A, B, True, cent, complemented, complemented, not complemented, witness
        )
    witness = None
    complemented: Optional[bool] = None
    if A.is_full() and A.dim > B.dim:
        complemented, witness = True, B
    elif cent.sum(A).is_full() and cent.intersect(A) == B:
        complemented, witness = True, cent
    return OldFactor(L, A, B, False, cent, True, complemented, False, witness)


def assert_flags_match(L: LieAlgebra, sections):
    for A, B in sections:
        f = classify_factor(L, A, B)
        assert OldFactor(
            L, A, B, f.abelian, f.centralizer, f.supplemented, f.complemented,
            f.frattini, f.complement_witness,
        ) == old_classify_section(L, A, B)


def crown_sections(L: LieAlgebra) -> list:
    """Each minimal ideal of L/R over R, for every crown C/R of L."""
    return [
        (W, crown.R)
        for crown in all_crowns(L, chief_series(L))
        for W in socle_and_minimal_ideals(L, crown.R).minimals
    ]


@pytest.mark.parametrize("name,field", CORPORA)
def test_factor_flags_match_the_old_classification(name, field):
    L = builtin(name, field)
    chain = chief_series(L).chain
    sections = list(zip(chain[1:], chain)) + crown_sections(L)
    assert sections
    assert_flags_match(L, sections)


@given(semidirect_sums())
@settings(max_examples=30, deadline=None)
def test_factor_flags_match_on_semidirect_sums(sum_and_n):
    """Every ideal section of the derived and lower central series, F^n
    over 0 and L over F^n."""
    L, n = sum_and_n
    N = L.span([unit_vec(L.field, L.dim, i) for i in range(n)])
    assert_flags_match(L, series_sections(L) + [(N, L.zero_space()), (L.full_space(), N)])


def old_denominator_intersection(F) -> Subspace:
    """The former derivation through the section C/B of the centralizer."""
    L = F.algebra
    N0 = _abelian_denominator_data(F)[0]
    fm = factor_module(L, F.centralizer, F.B)
    n0_c = fm.coords.project_space(N0)
    a_c = fm.coords.project_space(F.A)
    modN = restrict_module(fm.module, n0_c)
    modA = restrict_module(fm.module, a_c)
    homs = hom_space(modN, modA)
    FLD = L.field
    common = Subspace.full(FLD, n0_c.dim)
    for h in homs:
        _, _, _, ker = rref_solve(h.matrix)
        common = common.intersect(ker)
    # back to C/B coordinates, then to the ambient, plus B
    vecs = [fm.coords.lift(lin_comb(FLD, cv, n0_c.basis)) for cv in common.basis]
    return Subspace.from_vectors(FLD, L.dim, vecs + list(F.B.basis))


@pytest.mark.parametrize("name,field", CORPORA)
def test_denominators_match_the_old_intersection_loop(name, field):
    factors = [f for f in chief_series(builtin(name, field)).factors if f.abelian]
    for f in factors:
        if f.supplemented:
            assert denominator_intersection(f) == old_denominator_intersection(f)


def in_a_random_basis(M: LModule, rng: random.Random) -> LModule:
    """M moved by an invertible matrix g with entries in {-1, 0, 1}: the
    action g rho g^-1, dense where rho was sparse."""
    F, d = M.field, M.dim
    g = None
    while g is None or invert_matrix(g) is None:
        g = Matrix(F, [[rng.choice((-1, 0, 1)) for _ in range(d)] for _ in range(d)])
    ginv = invert_matrix(g)
    return LModule(M.algebra, [g.matmul(rho).matmul(ginv) for rho in M.mats], validate=False)


@pytest.mark.parametrize("name,field", CORPORA)
def test_hom_space_matches_the_dense_builder_in_a_random_basis(name, field):
    """Every ordered pair of chief-factor modules and socle summands of the
    adjoint module, each in a random basis, against the nullspace of the
    dense equations X rho1 = rho2 X."""
    L = builtin(name, field)
    M = adjoint_module(L)
    summands, _, _ = socle_decomposition(M)
    mods = [f.module() for f in chief_series(L).factors]
    mods += [restrict_module(M, W) for W in summands]
    rng = random.Random(f"{name}:{field}")
    assert_homs_match([in_a_random_basis(N, rng) for N in dict.fromkeys(mods)])
