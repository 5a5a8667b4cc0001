"""The primitive type of a section L/N is read inside L.

``connected`` once certified the minimality and the crossed centralizers
of C1/N and C2/N, for N = C1 cap C2, and then decided the type of L/N by
building the quotient table and classifying it; ``maximal_type`` did the
same for L/core(M).  These bodies are kept here literally (``old_*``), on a
value-equal copy of L so that no memo is shared.  Wherever the old route is
certified, the section route, which reads only the socle and the type of
L/N, gives the same verdict and status, and wherever it is not, neither is
the section route: on every factor pair of ``chief_series_variants`` over
the corpus over Q, GF(2), GF(3) and GF(5), and on Hypothesis semidirect
sums.  Every equal-centralizer nonabelian pair gets an equivariant
isomorphism from the Schur route.  Every witness of the section route is
checked in L: a subalgebra containing N that complements each minimal
section.
"""

import itertools

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    core,
    factor_centralizer,
    is_ideal,
    is_subalgebra,
    quotient_algebra,
)
from liestruct.chief import (
    ConnectionWitness,
    chief_series_variants,
    classify_factor,
    connected,
    module_isomorphic,
)
from liestruct.fields import GF, QQ, PrimeField
from liestruct.modules import ModuleMap, certify_irreducible, factor_module, split_abelian_extension
from liestruct.primitive import (
    TYPE1,
    TYPE2,
    TYPE3,
    MaximalTypeReport,
    classify_primitive,
    maximal_type,
    maximality_certificate,
)
from liestruct.status import CERTIFIED, CertificationFailure, undecided, worst

from conftest import CORPUS_GF2, CORPUS_Q
from test_bracket_constructions import semidirect_sums_in_a_random_basis
from test_socle_sections import sl2_cubed


def old_connected(F1, F2):
    L = F1.algebra
    iso, witness, st = module_isomorphic(F1, F2)
    if iso:
        return True, ConnectionWitness("isomorphic", iso=witness), st
    if F1.abelian or F2.abelian:
        return False, None, st
    C1, C2 = F1.centralizer, F2.centralizer
    N = C1.intersect(C2)
    for C in (C1, C2):
        if not is_ideal(L, C):
            raise CertificationFailure("a factor centralizer failed the ideal check")
    if C1 == C2:
        return False, None, st  # nonabelian equal centralizers already isomorphic
    # C1/N and C2/N must be chief factors with crossed centralizers
    for upper, other in ((C1, C2), (C2, C1)):
        fm = factor_module(L, upper, N)
        verdict, _, cst = certify_irreducible(fm.module)
        st = worst(st, cst)
        if verdict is not True:
            if verdict is None:
                return False, None, worst(st, undecided("minimality of a crossed section undecided"))
            return False, None, st
        if factor_centralizer(L, upper, N) != other:
            return False, None, st
    qa = quotient_algebra(L, N)
    qw = classify_primitive(qa.algebra)
    st = worst(st, qw.status)
    if qw.verdict == TYPE3:
        return True, ConnectionWitness("type3", kernel=N, quotient_witness=qw), st
    if qw.verdict == "undecided":
        return False, None, worst(st, undecided("type-3 certification out of scope"))
    return False, None, st


def old_maximal_type(L, M):
    """The old ``maximal_type`` with ``assume_maximal=True``."""
    if not is_subalgebra(L, M):
        raise AlgebraError("maximal-type analysis requires a subalgebra")
    mstat = maximality_certificate(L, M)
    if not mstat.certified:
        if isinstance(L.field, PrimeField):
            from liestruct.oracle import BudgetExceeded, EnumBudget, maximal_subalgebras_of

            try:
                maxes = maximal_subalgebras_of(L, EnumBudget(max_field_order=L.field.p))
            except BudgetExceeded:
                maxes = None
            if maxes is not None:
                if M not in maxes:
                    raise AlgebraError("subalgebra is not maximal")
                mstat = CERTIFIED
    ML = core(L, M)
    qa = quotient_algebra(L, ML)
    return MaximalTypeReport(ML, classify_primitive(qa.algebra), mstat)


def assert_section_witness(L: LieAlgebra, N, w):
    """Every subspace of the witness lies in L and contains N; a core-free
    maximal U of L/N is a subalgebra of core N, and a type-1 or type-3
    complement meets each minimal section in N and spans L with it."""
    spaces = list(w.minimal_ideals) + [w.monolith, w.core_free_maximal, w.common_complement]
    for X in spaces:
        if X is not None:
            assert X.ambient_dim == L.dim and X.contains_space(N)
    assert all(is_ideal(L, M) for M in w.minimal_ideals)
    U = w.core_free_maximal
    if U is not None:
        assert is_subalgebra(L, U) and core(L, U) == N
    complements = {TYPE1: [w.monolith], TYPE3: list(w.minimal_ideals)}.get(w.verdict, [])
    K = w.common_complement if w.verdict == TYPE3 else U
    if w.verdict == TYPE2 and U is not None:
        assert U.sum(w.monolith).is_full()
    for M in complements:
        assert K is not None and K.intersect(M) == N and K.sum(M).is_full()


def copy_of(L: LieAlgebra) -> LieAlgebra:
    return LieAlgebra(L.field, L.dim, L.table, validate=False)


def assert_connected_matches(L: LieAlgebra, limit: int = 6):
    """Every pair of factors of the series variants, both orders."""
    old = copy_of(L)
    sections = {(f.A, f.B) for S in chief_series_variants(L, limit) for f in S.factors}
    factors = [classify_factor(L, A, B) for A, B in sorted(sections, key=repr)]
    for f1, f2 in itertools.product(factors, repeat=2):
        ok, wit, st = connected(f1, f2)
        g1, g2 = (classify_factor(old, f.A, f.B) for f in (f1, f2))
        old_ok, old_wit, old_st = old_connected(g1, g2)
        if old_st.certified:
            assert (ok, st) == (old_ok, old_st)
        else:
            assert not st.certified
        if not (f1.abelian or f2.abelian) and f1.centralizer == f2.centralizer:
            iso = module_isomorphic(f1, f2)[1]
            ModuleMap(f1.module(), f2.module(), iso.matrix)  # checks equivariance
            assert iso.is_isomorphism()
        if wit is not None and wit.kind == "type3":
            assert wit.kernel == old_wit.kernel
            assert wit.quotient_witness.verdict == TYPE3
            assert_section_witness(L, wit.kernel, wit.quotient_witness)
    return factors


def known_maximals(L: LieAlgebra, factors) -> list:
    """Maximal subalgebras found without enumeration: the complement of
    every complemented abelian chief factor A/B (a subalgebra K with
    K + A = L and K cap A = B is maximal, since A/B is irreducible under
    K), and the core-free maximal of L and of each type-3 section."""
    out = []
    for f in factors:
        if f.abelian:
            cert = split_abelian_extension(L, f.A, f.B)
            if cert is not None and cert.complement.dim < L.dim:
                out.append(cert.complement)
    for g in factors:
        for f in factors:
            ok, wit, _ = connected(f, g)
            if ok and wit.kind == "type3":
                out.append(wit.quotient_witness.core_free_maximal)
    U = classify_primitive(L).core_free_maximal
    if U is not None:
        out.append(U)
    if isinstance(L.field, PrimeField) and L.field.p**L.dim <= 3**5:
        from liestruct.oracle import EnumBudget, enum_structures

        out += enum_structures(L, EnumBudget(max_field_order=L.field.p)).maximal_subalgebras
    return list(dict.fromkeys(out))


def assert_maximal_types_match(L: LieAlgebra, factors):
    old = copy_of(L)
    for M in known_maximals(L, factors):
        rep = maximal_type(L, M, assume_maximal=True)
        old_rep = old_maximal_type(old, M)
        assert (rep.core, rep.maximality) == (old_rep.core, old_rep.maximality)
        w, old_w = rep.quotient_witness, old_rep.quotient_witness
        if old_w.status.certified:
            assert (w.verdict, w.status) == (old_w.verdict, old_w.status)
        assert_section_witness(L, rep.core, w)


FIELDS_CORPUS = (
    [(name, QQ) for name in CORPUS_Q]
    + [(name, GF(2)) for name in CORPUS_GF2]
    + [(name, GF(p)) for p in (3, 5) for name in CORPUS_Q if (name, p) != ("ex22", 5)]
)


@pytest.mark.parametrize(
    "name,field", FIELDS_CORPUS, ids=[f"{n}-{F!r}" for n, F in FIELDS_CORPUS]
)
def test_sections_match_the_quotient_tables_on_the_corpus(name, field):
    L = builtin(name, field)
    assert_maximal_types_match(L, assert_connected_matches(L))


def test_the_type3_sections_are_reached():
    """sl2 + sl2 + sl2 connects every pair of its chief factors; two factors
    with different centralizers are connected through a type-3 section
    L/N, N the third copy of sl2, which is not 0."""
    L = sl2_cubed(GF(3))
    factors = assert_connected_matches(L)
    kernels = set()
    for f1, f2 in itertools.combinations(factors, 2):
        ok, wit, st = connected(f1, f2)
        assert ok and st.certified
        if wit.kind == "type3":
            kernels.add(wit.kernel.dim)
    assert kernels == {3}
    assert_maximal_types_match(L, factors)


@given(semidirect_sums_in_a_random_basis())
@settings(max_examples=20, deadline=None)
def test_sections_match_on_semidirect_sums_in_a_random_basis(sum_and_ideal):
    L = sum_and_ideal[0]
    assert_maximal_types_match(L, assert_connected_matches(L, limit=3))
