"""``QuotientMap.graph``, the one builder of the paper's witness subspaces
that are graphs of linear maps between two sections of L: split
complements (the graph of a cochain over L/A), the type-3 common
complement (the graph of an isomorphism M1/N -> M2/N) and the precrown
denominators (graphs of module maps N0/B -> A/B).

The references are the three constructions as they were written by hand
before, copied here."""

import functools
import itertools
import random

import pytest

from liestruct import builtin
from liestruct.algebra import section_algebra
from liestruct.chief import chief_series
from liestruct.crowns import _abelian_denominator_data, precrowns_of_factor
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, QuotientMap, Subspace, lin_comb, unit_vec, vec_add
from liestruct.modules import factor_module, socle_and_minimal_ideals, split_abelian_extension
from liestruct.primitive import classify_primitive, isomorphism_search

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q


def old_split_complement(L, A, B, phi) -> Subspace:
    F = L.field
    fm = factor_module(L, A, B)
    section = QuotientMap(L.full_space(), A).lifts
    comp_vecs = [
        lin_comb(F, (F.one(),) + phi.col(i), (section[i],) + fm.coords.lifts)
        for i in range(len(section))
    ]
    return Subspace.from_vectors(F, L.dim, comp_vecs + list(B.basis))


def old_diagonal_complement(L, qm1, qm2, iso) -> Subspace:
    F = L.field
    vecs = [
        vec_add(F, v, qm2.lift(iso.apply(unit_vec(F, qm1.dim, i))))
        for i, v in enumerate(qm1.lifts)
    ]
    return Subspace.from_vectors(F, L.dim, vecs + list(qm1.U.basis))


def old_precrown_denominators(f) -> list:
    """Every graph over N0/B plus B, one per combination of the homs,
    before the splitting check."""
    L, FLD = f.algebra, f.algebra.field
    _, fm, homs = _abelian_denominator_data(f)
    lift_a = factor_module(L, f.A, f.B).coords.lift
    graphs = [[b] + [lift_a(h.matrix.col(i)) for h in homs] for i, b in enumerate(fm.coords.lifts)]
    out = []
    for coeffs in itertools.product(range(FLD.p), repeat=len(homs)):
        vecs = [lin_comb(FLD, (1,) + coeffs, g) for g in graphs]
        out.append(Subspace.from_vectors(FLD, L.dim, vecs + list(f.B.basis)))
    return out


def corpus(names, F):
    return [(name, builtin(name, F)) for name in names]


SPLIT_CASES = corpus(CORPUS_Q, QQ) + corpus(CORPUS_GF2, GF(2)) + corpus(CORPUS_GF3, GF(3))


@pytest.mark.parametrize("name,L", SPLIT_CASES, ids=[f"{n}-{L.field}" for n, L in SPLIT_CASES])
def test_split_complements_are_the_graphs_of_their_cochains(name, L):
    for f in chief_series(L).factors:
        if not f.abelian:
            continue
        cert = split_abelian_extension(L, f.A, f.B)
        if cert is None:
            continue
        graph = QuotientMap(L.full_space(), f.A).graph(factor_module(L, f.A, f.B).coords, cert.cochain)
        assert graph == old_split_complement(L, f.A, f.B, cert.cochain) == cert.complement


@pytest.mark.parametrize("F", [QQ, GF(3), GF(5)], ids=str)
def test_the_type3_common_complement_is_the_graph_of_the_isomorphism(F):
    L = builtin("sl2_plus_sl2", F)
    N = L.zero_space()
    M1, M2 = socle_and_minimal_ideals(L, N).minimals
    qm1, qm2 = QuotientMap(M1, N), QuotientMap(M2, N)
    iso, _ = isomorphism_search(section_algebra(L, qm1), section_algebra(L, qm2))
    U = qm1.graph(qm2, iso)
    assert U == old_diagonal_complement(L, qm1, qm2, iso) == classify_primitive(L).common_complement
    # the builder takes any matrix between the two sections, not only an isomorphism
    rng = random.Random(f"graph:{F}")
    for _ in range(5):
        T = Matrix(F, [[rng.randint(-2, 2) for _ in range(qm1.dim)] for _ in range(qm2.dim)])
        assert qm1.graph(qm2, T) == old_diagonal_complement(L, qm1, qm2, T)


@pytest.mark.parametrize("name", CORPUS_GF3)
def test_precrown_denominators_are_the_graphs_of_the_hom_combinations(name):
    L = builtin(name, GF(3))
    for f in chief_series(L).factors:
        if not (f.supplemented and f.abelian):
            continue
        candidates = old_precrown_denominators(f)
        _, fm, homs = _abelian_denominator_data(f)
        target = factor_module(L, f.A, f.B).coords
        zero = Matrix.zero(L.field, target.dim, fm.coords.dim)
        for coeffs, N in zip(itertools.product(range(3), repeat=len(homs)), candidates):
            T = functools.reduce(Matrix.add, [h.matrix.scale(c) for c, h in zip(coeffs, homs)], zero)
            assert fm.coords.graph(target, T) == N
        admitted = [N for N in candidates if split_abelian_extension(L, f.centralizer, N) is not None]
        assert [pc.denominator for pc in precrowns_of_factor(f).precrowns] == admitted
