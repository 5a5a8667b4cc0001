"""The bracket constructions of ``algebra`` against the loops they replaced.

``bracket_colon`` gives centralizers, section centralizers and the steps of
``core``; ``section_action`` gives the matrices of a factor module and of the
semidirect models of ``type_equivalence_witnesses``; ``unipotent_conjugator``
serves both conjugators.  ``QuotientMap.induced`` over the lift basis
``lifts`` gives the submodules and quotient modules of ``_section_module``
and the section action of ``split_abelian_extension``, and one inverse
gives the theta of ``type_equivalence_witnesses``.  The former hand-written
bodies are kept here as references (``old_*``) and must give identical
values: every chief-series section of the Q and GF(2) corpora, Hypothesis
semidirect sums F^n + L of matrix algebras over Q, GF(2) and GF(3), every
socle piece of the corpus adjoint modules, every abelian chief and crown
section, and every type-1 and type-3 corpus algebra.
"""

import itertools
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    bracket_colon,
    bracket_law_failure,
    brackets_inside,
    centralizer,
    core,
    derived_series,
    factor_centralizer,
    is_ideal,
    is_subalgebra,
    lower_central_series,
    nilpotent_automorphism,
    preserves_brackets,
    quotient_algebra,
    section_action,
    semidirect_sum,
)
from liestruct.chief import chief_series
from liestruct.crowns import all_crowns, complement_conjugator, crown_of_factor
from liestruct.fields import GF, QQ
from liestruct.linalg import (
    Matrix,
    QuotientMap,
    Subspace,
    Vector,
    invert_matrix,
    lin_comb,
    rref_solve,
    unit_vec,
    vec_sub,
    zero_vec,
)
from liestruct.modules import (
    LModule,
    SplittingCertificate,
    adjoint_module,
    factor_module,
    quotient_module,
    restrict_module,
    socle_decomposition,
    split_abelian_extension,
)
from liestruct.oracle import enum_structures
from liestruct.primitive import (
    TYPE1,
    TYPE3,
    classify_primitive,
    core_free_conjugator,
    type_equivalence_witnesses,
)
from liestruct.status import CertificationFailure

from conftest import CORPUS_GF2, CORPUS_Q
from test_isomorphism import transport
from test_socle import natural_module


def old_centralizer(L: LieAlgebra, U: Subspace) -> Subspace:
    F = L.field
    if U.is_zero():
        return L.full_space()
    rows = []
    for u in U.basis:
        cols = [L.bracket(unit_vec(F, L.dim, i), u) for i in range(L.dim)]
        M = Matrix.from_columns(F, cols)
        rows.extend(M.entries)
    _, _, _, null = rref_solve(Matrix(F, rows))
    return null


def old_factor_centralizer(L: LieAlgebra, A: Subspace, B: Subspace) -> Subspace:
    F = L.field
    if A.is_zero():
        return L.full_space()
    amb = L.full_space()
    qm = QuotientMap(amb, B)
    rows = []
    for a in A.basis:
        cols = [qm.project(L.bracket(unit_vec(F, L.dim, i), a)) for i in range(L.dim)]
        if qm.dim == 0:
            continue
        M = Matrix.from_columns(F, cols)
        rows.extend(M.entries)
    if not rows:
        return L.full_space()
    _, _, _, null = rref_solve(Matrix(F, rows))
    return null


def old_core(L: LieAlgebra, U: Subspace) -> Subspace:
    F = L.field
    current = U
    while True:
        if current.is_zero():
            return current
        qm = QuotientMap(L.full_space(), current)
        if qm.dim == 0:
            return current
        rows = []
        for i in range(L.dim):
            cols = []
            for b in current.basis:
                cols.append(qm.project(L.bracket(unit_vec(F, L.dim, i), b)))
            M = Matrix.from_columns(F, cols)
            rows.extend(M.entries)
        _, _, _, null = rref_solve(Matrix(F, rows))
        vecs = [lin_comb(F, coeffs, current.basis) for coeffs in null.basis]
        nxt = Subspace.from_vectors(F, L.dim, vecs)
        if nxt == current:
            return current
        current = nxt


def old_factor_module_mats(L: LieAlgebra, A: Subspace, B: Subspace) -> list:
    F = L.field
    qm = QuotientMap(A, B)
    d = qm.dim
    mats = []
    for i in range(L.dim):
        cols = [
            qm.project(L.bracket(unit_vec(F, L.dim, i), qm.lift(unit_vec(F, d, j))))
            for j in range(d)
        ]
        mats.append(Matrix.from_columns(F, cols) if d else Matrix(F, []))
    return mats


def old_semidirect_action(L: LieAlgebra, C: Subspace, B: Subspace) -> list:
    """The action of L/C on the ideal B, as the type-1/3 branch built it."""
    F = L.field
    qa = quotient_algebra(L, C)
    Q = qa.algebra
    action = []
    for i in range(Q.dim):
        lift = qa.lift(unit_vec(F, Q.dim, i))
        cols = [B.coords(L.bracket(lift, b)) for b in B.basis]
        action.append(Matrix.from_columns(F, cols))
    return action


def old_inflation_action(L: LieAlgebra, D: Subspace) -> list:
    """The adjoint action of L on the ideal D, as the type-2 branch built it."""
    F = L.field
    action = []
    for i in range(L.dim):
        cols = [D.coords(L.bracket(unit_vec(F, L.dim, i), d)) for d in D.basis]
        action.append(Matrix.from_columns(F, cols))
    return action


def basis_subalgebras(L: LieAlgebra) -> list:
    """The subalgebras spanned by subsets of the basis."""
    F, n = L.field, L.dim
    spans = (
        L.span([unit_vec(F, n, i) for i in subset])
        for size in range(n + 1)
        for subset in itertools.combinations(range(n), size)
    )
    return [U for U in spans if is_subalgebra(L, U)]


def assert_sections_match(L: LieAlgebra, pairs):
    """Every construction on the ideal sections A/B (B inside A) of L."""
    for A, B in pairs:
        assert factor_centralizer(L, A, B) == old_factor_centralizer(L, A, B)
        assert centralizer(L, A) == old_centralizer(L, A)
        fm = factor_module(L, A, B)
        assert fm.module.mats == tuple(old_factor_module_mats(L, A, B))
        qm = fm.coords
        assert list(qm.lifts) == [qm.lift(unit_vec(L.field, qm.dim, j)) for j in range(qm.dim)]
        units = [unit_vec(L.field, L.dim, i) for i in range(L.dim)]
        ideal = QuotientMap(A, L.zero_space())
        assert section_action(L, units, ideal) == old_inflation_action(L, A)
        C = centralizer(L, A)
        qa = quotient_algebra(L, C)
        lifts = [qa.lift(unit_vec(L.field, qa.algebra.dim, i)) for i in range(qa.algebra.dim)]
        assert section_action(L, lifts, ideal) == old_semidirect_action(L, C, A)


def assert_cores_match(L: LieAlgebra, subalgebras):
    for U in subalgebras:
        assert core(L, U) == old_core(L, U)


def chief_sections(L: LieAlgebra) -> list:
    chain = chief_series(L).chain
    return [(A, B) for B, A in zip(chain, chain[1:])] + [(L.full_space(), L.zero_space())]


@pytest.mark.parametrize(
    "name,field",
    [(n, QQ) for n in CORPUS_Q] + [(n, GF(2)) for n in CORPUS_GF2],
    ids=[f"{n}-q" for n in CORPUS_Q] + [f"{n}-gf2" for n in CORPUS_GF2],
)
def test_chief_sections_match_the_old_loops(name, field):
    L = builtin(name, field)
    assert_sections_match(L, chief_sections(L))
    assert_cores_match(L, basis_subalgebras(L))


def test_cores_of_maximal_subalgebras_match_over_gf2():
    for name in CORPUS_GF2:
        L = builtin(name, GF(2))
        assert_cores_match(L, enum_structures(L).maximal_subalgebras)


def series_sections(L: LieAlgebra) -> list:
    """Consecutive terms of the derived and lower central series, and each
    term over 0: ideal sections that need no socle computation."""
    pairs = []
    for series in (derived_series(L), lower_central_series(L)):
        pairs += list(zip(series, series[1:])) + [(A, L.zero_space()) for A in series]
    return pairs


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["q", "gf2", "gf3"])
def test_induced_is_the_matrix_of_its_projected_columns(field):
    """``QuotientMap.induced`` keeps the canonical scalars of ``project`` as
    they are; its matrix equals ``Matrix.from_columns`` of the same columns,
    which coerces them, down to the type of each scalar.  Over Q a basis
    of determinant 2 gives rational structure constants."""
    algebras = [builtin(n, field) for n in (CORPUS_GF2 if field == GF(2) else CORPUS_Q)]
    if field == QQ:
        algebras.append(transport(builtin("sl2", QQ), Matrix(QQ, [[1, 1, 0], [-1, 1, 0], [0, 0, 1]])))
    for L in algebras:
        sections = chief_sections(L) + series_sections(L) + [(L.full_space(), L.full_space())]
        for A, B in sections:
            qm = QuotientMap(A, B)
            for i in range(L.dim):
                x = unit_vec(field, L.dim, i)
                M = qm.induced(lambda v: L.bracket(x, v))
                ref = Matrix.from_columns(field, [qm.project(L.bracket(x, v)) for v in qm.lifts])
                assert (M, M.rows, M.cols) == (ref, ref.rows, ref.cols)
                assert [type(a) for row in M.entries for a in row] == [
                    type(a) for row in ref.entries for a in row
                ]


@st.composite
def semidirect_sums(draw, primes=(0, 2, 3)):
    """F^n + L for the commutator closure L of up to two integer n x n
    matrices (n <= 3) acting naturally, over GF(p) for p in ``primes``, or
    Q for p = 0: by default over Q, GF(2) or GF(3)."""
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)
    M = natural_module(p, n, draw(st.lists(entries, min_size=1, max_size=2)))
    assume(M.algebra.dim > 0)
    return semidirect_sum(builtin(f"ab({n})", M.field), M.algebra, M.mats), n


@given(semidirect_sums())
@settings(max_examples=40, deadline=None)
def test_semidirect_sums_match_the_old_loops(sum_and_n):
    L, n = sum_and_n
    units = [unit_vec(L.field, L.dim, i) for i in range(L.dim)]
    N = L.span(units[:n])  # the abelian ideal F^n
    acting = L.span(units[n:])
    assert is_ideal(L, N) and is_subalgebra(L, acting)
    pairs = series_sections(L) + [(N, L.zero_space()), (L.full_space(), N)]
    assert_sections_match(L, pairs)
    assert_cores_match(L, [N, acting, N.sum(L.span(units[n : n + 1]))])


def colon_by_definition(L: LieAlgebra, X: Subspace, Y: Subspace, W: Subspace) -> Subspace:
    """The span of every x in X, enumerated over GF(p), with [x, Y] in W."""
    F = L.field
    inside = []
    for c in itertools.product(range(F.p), repeat=X.dim):
        x = lin_comb(F, c, X.basis) if X.dim else tuple([0] * L.dim)
        if all(W.contains(L.bracket(x, y)) for y in Y.basis):
            inside.append(x)
    return L.span(inside)


@st.composite
def colon_inputs(draw):
    """An algebra of dimension <= 5 over GF(2) or GF(3) in a random basis,
    with random subspaces X, Y and W."""
    p = draw(st.sampled_from([2, 3]))
    names = CORPUS_GF2 if p == 2 else [nm for nm in CORPUS_Q if nm != "sl2_plus_sl2"]
    L = builtin(draw(st.sampled_from(names)), GF(p))
    n = L.dim
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    g = Matrix(L.field, [entries[i * n : (i + 1) * n] for i in range(n)])
    if invert_matrix(g) is not None:
        L = transport(L, g)
    vectors = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)

    def space():
        return L.span(draw(st.lists(vectors, max_size=n)))

    return L, space(), space(), space()


@given(colon_inputs())
@settings(max_examples=150, deadline=None)
def test_bracket_colon_is_its_definition(inputs):
    L, X, Y, W = inputs
    assert L.dim <= 5
    assert bracket_colon(L, X, Y, W) == colon_by_definition(L, X, Y, W)
    assert bracket_colon(L, L.full_space(), Y, W) == colon_by_definition(L, L.full_space(), Y, W)


def test_conjugators_agree_on_the_core_free_maximals_of_r2_over_gf3():
    R = builtin("r2", GF(3))
    S = chief_series(R)
    crown = crown_of_factor(S.factors[0], S)  # the crown of the monolith factor
    core_free = [M for M in enum_structures(R).maximal_subalgebras if core(R, M).is_zero()]
    assert len(core_free) == 3
    for U1 in core_free:
        for U2 in core_free:
            assert core_free_conjugator(R, U1, U2) == complement_conjugator(R, crown, U1, U2)


def test_conjugators_agree_on_core_free_maximals_of_r2_over_q():
    R = builtin("r2", QQ)
    S = chief_series(R)
    crown = crown_of_factor(S.factors[0], S)
    core_free = [R.span([(1, c)]) for c in (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 5))]
    for U1 in core_free:
        for U2 in core_free:
            a = core_free_conjugator(R, U1, U2)
            assert a == complement_conjugator(R, crown, U1, U2)
            assert crown.C.contains(a)


def test_bracket_law_failure_names_the_first_failing_pair():
    L = builtin("heis", QQ)  # [x, y] = z
    ad = [L.ad(unit_vec(QQ, 3, i)) for i in range(3)]
    assert bracket_law_failure(L, ad) is None
    assert bracket_law_failure(L, [ad[0], ad[1], Matrix.identity(QQ, 3)]) == (0, 1)
    A = builtin("ab(3)", QQ)
    e12, e21 = Matrix(QQ, [(0, 1), (0, 0)]), Matrix(QQ, [(0, 0), (1, 0)])
    assert bracket_law_failure(A, [Matrix.zero(QQ, 2, 2), e12, e12]) is None
    assert bracket_law_failure(A, [Matrix.zero(QQ, 2, 2), e12, e21]) == (1, 2)


def test_preserves_brackets_is_the_homomorphism_test():
    L = builtin("heis", QQ)
    assert preserves_brackets(L, L, nilpotent_automorphism(L, (1, 0, 0)).matrix)
    assert preserves_brackets(L, L, Matrix.identity(QQ, 3).scale(0))
    assert not preserves_brackets(L, L, Matrix.identity(QQ, 3).scale(2))  # [2x, 2y] = 4z


def old_section_module(M: LModule, qm: QuotientMap) -> LModule:
    """The former ``modules._section_module`` loop."""
    F = M.field
    lifts = [qm.lift(unit_vec(F, qm.dim, j)) for j in range(qm.dim)]
    mats = [Matrix.from_columns(F, [qm.project(rho.apply(w)) for w in lifts]) for rho in M.mats]
    return LModule(M.algebra, mats, validate=False)


def old_split_abelian_extension(
    L: LieAlgebra, A: Subspace, B: Subspace
) -> Optional[SplittingCertificate]:
    """The former ``modules.split_abelian_extension``, whose cocycle rows
    rebuild the section action through the ``act`` closure per pair."""
    if not is_ideal(L, A) or not is_ideal(L, B):
        raise AlgebraError("splitting test requires ideals")
    if not A.contains_space(B):
        raise AlgebraError("denominator must sit inside the numerator")
    if not brackets_inside(L, A, A, B):
        raise AlgebraError("the section is not abelian")
    F = L.field
    qa = quotient_algebra(L, B)
    Q = qa.algebra
    Abar = qa.project_space(A)
    if Abar.is_zero():
        return SplittingCertificate(L.full_space(), Matrix(F, []))
    qm = QuotientMap(Q.full_space(), Abar)  # coordinates of (L/B)/(A/B)
    q = qm.dim
    a = Abar.dim
    if q == 0:
        # complement of the full section is the denominator itself
        return SplittingCertificate(B, Matrix(F, []))
    section = [qm.lift(unit_vec(F, q, i)) for i in range(q)]

    # action of Q on Abar in Abar-coordinates
    def act(x: Vector, acoords: Vector) -> Vector:
        return Abar.coords(Q.bracket(x, lin_comb(F, acoords, Abar.basis)))

    nvar = a * q  # cochain phi: q-coords -> Abar-coords
    rows, rhs = [], []
    for i in range(q):
        for j in range(i + 1, q):
            br = Q.bracket(section[i], section[j])
            br_q = qm.project(br)
            s_br = qm.lift(br_q)
            g = Abar.coords(vec_sub(F, br, s_br))  # the 2-cocycle value
            # closure of {s + phi} forces
            #   x_i . phi(x_j) - x_j . phi(x_i) - phi([x_i, x_j]) = -g(i, j)
            ei = [act(section[i], unit_vec(F, a, k)) for k in range(a)]
            ej = [act(section[j], unit_vec(F, a, k)) for k in range(a)]
            for t in range(a):
                coeff = [F.zero()] * nvar
                for k in range(a):
                    coeff[k * q + j] += ei[k][t]
                    coeff[k * q + i] -= ej[k][t]
                for k in range(q):
                    coeff[t * q + k] -= br_q[k]
                rows.append(coeff)
                rhs.append(-g[t])
    if rows:
        _, _, particular, _ = rref_solve(Matrix(F, rows), tuple(rhs))
        if particular is None:
            return None
        phi = Matrix(F, [particular[t * q : (t + 1) * q] for t in range(a)])
    else:
        phi = Matrix.zero(F, a, q)
    comp_vecs = []
    for i in range(q):
        corr = phi.apply(unit_vec(F, q, i))
        w = lin_comb(F, (F.one(),) + corr, (section[i],) + Abar.basis)
        comp_vecs.append(qa.lift(w))
    K = Subspace.from_vectors(F, L.dim, comp_vecs + list(B.basis))
    # hard postcondition
    if not is_subalgebra(L, K):
        raise AlgebraError("splitting produced a non-subalgebra")
    if K.intersect(A) != B or K.sum(A) != L.full_space():
        raise AlgebraError("splitting produced a wrong complement")
    return SplittingCertificate(K, phi)


def old_decompose(L: LieAlgebra, B: Subspace, U: Subspace, v):
    """Split v = b + u along L = B (+) U; returns (b, u)."""
    F = L.field
    cols = [list(x) for x in B.basis] + [list(x) for x in U.basis]
    M = Matrix.from_columns(F, [tuple(c) for c in cols])
    _, _, sol, _ = rref_solve(M, v)
    if sol is None:
        raise CertificationFailure("vector does not decompose along the complement")
    b = lin_comb(F, sol[: B.dim], B.basis) if B.dim else zero_vec(F, L.dim)
    return b, vec_sub(F, v, b)


def old_theta(L: LieAlgebra) -> Matrix:
    """The isomorphism b + u -> (b, u + C_L(B)) of the type-1/3 branch of
    ``type_equivalence_witnesses``, one ``old_decompose`` per basis vector."""
    w = classify_primitive(L)
    F = L.field
    B = w.monolith if w.verdict == TYPE1 else w.minimal_ideals[0]
    U = w.core_free_maximal
    qa = quotient_algebra(L, centralizer(L, B))
    cols = []
    for i in range(L.dim):
        b, u = old_decompose(L, B, U, unit_vec(F, L.dim, i))
        cols.append(tuple(B.coords(b)) + tuple(qa.project(u)))
    return Matrix.from_columns(F, cols)


CORPORA = [(n, QQ, "q") for n in CORPUS_Q] + [(n, GF(2), "gf2") for n in CORPUS_GF2]
GF3_CORPUS = [(n, GF(3), "gf3") for n in CORPUS_Q]
SEMISIMPLE = ("sl2", "sl2_plus_sl2")  # no abelian section


def corpus_params(corpora):
    return [pytest.param(n, f, id=f"{n}-{tag}") for n, f, tag in corpora]


@pytest.mark.parametrize("name,field", corpus_params(CORPORA))
def test_socle_pieces_match_the_old_section_loop(name, field):
    """Submodule and quotient module of every socle summand, and of the
    socle, of the adjoint module."""
    M = adjoint_module(builtin(name, field))
    summands, soc, _ = socle_decomposition(M)
    for W in summands + [soc]:
        zero = Subspace.zero(M.field, M.dim)
        assert restrict_module(M, W) == old_section_module(M, QuotientMap(W, zero))
        whole = QuotientMap(M.full_space(), W)
        assert quotient_module(M, W) == old_section_module(M, whole)


@pytest.mark.parametrize(
    "name,field", corpus_params(c for c in CORPORA + GF3_CORPUS if c[0] not in SEMISIMPLE)
)
def test_splittings_match_the_old_cocycle_rows(name, field):
    """The complement and the cochain on every abelian chief section and
    every abelian crown section C/R."""
    L = builtin(name, field)
    S = chief_series(L)
    sections = [(f.A, f.B) for f in S.factors if f.abelian]
    sections += [(c.C, c.R) for c in all_crowns(L, S) if brackets_inside(L, c.C, c.C, c.R)]
    assert sections
    for A, B in sections:
        assert split_abelian_extension(L, A, B) == old_split_abelian_extension(L, A, B)


@st.composite
def semidirect_sums_in_a_random_basis(draw, primes=(0, 2, 3)):
    """A semidirect sum F^n + L (over the fields of ``primes``, as in
    ``semidirect_sums``) moved by g = (unit lower triangular) x (unit
    upper triangular) with entries in {-1, 0, 1}, and the image of F^n.  In
    the new basis the canonical lifts of a section need not span a
    subalgebra, so the cochain that corrects them need not be zero; on
    every split abelian section of the corpus algebras it is zero."""
    L, n = draw(semidirect_sums(primes))
    F, d = L.field, L.dim
    entries = st.lists(st.integers(-1, 1), min_size=d * d, max_size=d * d)
    lo, up = draw(entries), draw(entries)

    def unitriangular(c, below):
        return Matrix(F, [
            [1 if i == j else c[i * d + j] if (j < i) == below else 0 for j in range(d)]
            for i in range(d)
        ])

    g = unitriangular(lo, True).matmul(unitriangular(up, False))
    Lg = transport(L, g)
    return Lg, Lg.span([g.col(k) for k in range(n)])


@given(semidirect_sums_in_a_random_basis())
@settings(max_examples=40, deadline=None)
def test_splittings_match_in_a_random_basis(sum_and_ideal):
    """The complement and the cochain on F^n over 0 and on every abelian
    section of the derived and lower central series."""
    L, N = sum_and_ideal
    pairs = series_sections(L) + [(N, L.zero_space())]
    for A, B in pairs:
        if brackets_inside(L, A, A, B):
            assert split_abelian_extension(L, A, B) == old_split_abelian_extension(L, A, B)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["q", "gf2", "gf3"])
def test_theta_matches_the_old_decomposition(field):
    names = CORPUS_GF2 if field == GF(2) else CORPUS_Q
    algebras = [builtin(n, field) for n in names]
    typed = [L for L in algebras if classify_primitive(L).verdict in (TYPE1, TYPE3)]
    assert {classify_primitive(L).verdict for L in typed} == (
        {TYPE1} if field == GF(2) else {TYPE1, TYPE3}
    )
    for L in typed:
        assert type_equivalence_witnesses(L).iso_matrix == old_theta(L)
