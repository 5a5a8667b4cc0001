"""Chief factors, crown denominators and hom-space equations against the
code they replaced.

A chief factor now keeps only its abelian flag and centralizer and reads
its supplemented, complemented and Frattini flags, and its complement
witness, from the section's splitting certificate when asked; the former
classification ran the splitting test on every section it classified.
``denominator_intersection`` takes the common kernel of the hom maps as one
nullspace, where it intersected one kernel per map, and reads the section
N0/B in its own coordinates, where it read it inside the section C/B of the
centralizer; ``_equivariance_rows`` writes each row from the nonzeros of
the action matrices, where it added every entry, and leaves out the zero
and repeated rows, which the former builder kept.  The former bodies are
kept here as references (``old_*``) and must give identical values (the
equivariance rows: the former rows less the zero and repeated ones): every chief-series section and every crown
section of the corpora over Q, GF(2) and GF(3), Hypothesis semidirect sums
F^n + L, every supplemented abelian series factor, and every pair of
chief-factor modules and socle summands.
"""

from collections import namedtuple
from typing import Optional

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import LieAlgebra, brackets_inside, factor_centralizer
from liestruct.chief import chief_series, classify_factor
from liestruct.crowns import _abelian_denominator_data, all_crowns, denominator_intersection
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, Subspace, lin_comb, rref_solve, unit_vec
from liestruct.modules import (
    _equivariance_rows,
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


def old_equivariance_rows(M1, M2) -> list:
    F = M1.field
    s, t = M1.dim, M2.dim
    rows = []
    for r1, r2 in zip(M1.mats, M2.mats):
        for i in range(t):
            for j in range(s):
                coeff = [F.zero()] * (t * s)
                for k in range(s):
                    coeff[i * s + k] += r1.entries[k][j]
                for k in range(t):
                    coeff[k * s + j] -= r2.entries[i][k]
                rows.append(coeff)
    return rows


@pytest.mark.parametrize("name,field", CORPORA)
def test_equivariance_rows_match_the_old_dense_builder(name, field):
    """Every ordered pair of chief-factor modules and socle summands of the
    adjoint module."""
    L = builtin(name, field)
    M = adjoint_module(L)
    summands, _, _ = socle_decomposition(M)
    mods = [f.module() for f in chief_series(L).factors]
    mods += [restrict_module(M, W) for W in summands]
    for M1 in mods:
        for M2 in mods:
            F = M1.field
            old = [tuple(r) for r in Matrix(F, old_equivariance_rows(M1, M2)).entries]
            kept = [r for r in dict.fromkeys(old) if any(r)]  # first occurrences, nonzero
            assert [tuple(r) for r in _equivariance_rows(M1, M2)] == kept
