"""The GF(p) irreducibility certificate by Norton's criterion on the kernel
of one singular element, diffed against the projective-point enumeration it
replaced, which is kept here as the literal old definition: the verdicts
agree, every reducible witness is a nonzero proper submodule, and the
minimal submodules picked for the socle decomposition (hence the chief
series) are the ones the enumerated witness picked."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestruct import builtin, modules
from liestruct.algebra import direct_sum, quotient_algebra
from liestruct.chief import chief_series
from liestruct.fields import GF
from liestruct.linalg import Matrix, Subspace, invert_matrix, lin_comb, rref_solve
from liestruct.linalg import _rref_gf, unit_vec
from liestruct.modules import (
    LModule,
    _least_singular,
    _minimal_inside,
    _norton_kernel,
    _nonzero_vectors,
    adjoint_module,
    certify_irreducible,
    factor_module,
    restrict_module,
    socle_space,
    spin,
)

from conftest import CORPUS_GF2, CORPUS_GF3
from test_chains_and_complements import old_complement_in_semisimple
from test_modules import x_acting_by_companion
from test_socle import natural_module, transposed

FINITE_CORPUS = [(name, 2) for name in CORPUS_GF2] + [(name, 3) for name in CORPUS_GF3]


def enumerated_certificate(M: LModule):
    """The old GF(p) branch of ``certify_irreducible``: M is irreducible iff
    every projective point spins to M; the witness is the first proper spin."""
    for v in _nonzero_vectors(M.field, M.dim):
        W = spin(M, v)
        if W.dim < M.dim:
            return False, W
    return True, None


def enumerated_minimal_inside(M: LModule, V: Subspace, avoid: Subspace) -> Subspace:
    """The old ``_minimal_inside`` on the enumerated witness and the old
    complement of the combined equivariance-and-projection system."""
    R = restrict_module(M, V)
    verdict, counterexample = enumerated_certificate(R)
    if verdict:
        return V
    F = M.field
    U = Subspace.from_vectors(F, M.dim, [lin_comb(F, cv, V.basis) for cv in counterexample.basis])
    Uc = old_complement_in_semisimple(M, V, U)
    if not avoid.contains_space(U):
        return enumerated_minimal_inside(M, U, avoid)
    return enumerated_minimal_inside(M, Uc, avoid)


def is_proper_submodule(M: LModule, W: Subspace) -> bool:
    return 0 < W.dim < M.dim and all(
        W.contains(rho.apply(w)) for rho in M.mats for w in W.basis
    )


def scanned_singular(M: LModule):
    """The old search of ``_norton_kernel``: the rank of rho - lambda for
    every scalar lambda, and for each every action matrix rho, keeping the
    first of least positive nullity k < d and stopping at nullity 1;
    ``(k, theta)``, or ``(d, None)`` when none is singular."""
    p, d = M.field.p, M.dim
    actions = dict.fromkeys(rho.entries for rho in M.mats if not rho.is_zero())
    k, found = d, (d, None)
    for lam in range(p):
        for rows in actions:
            theta = [[(x - lam) % p if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
            nullity = d - len(_rref_gf(p, theta)[1])
            if 0 < nullity < k:
                k, found = nullity, (nullity, theta)
                if k == 1:
                    return found
    return found


def assert_certificate_matches(M: LModule):
    assert _least_singular(M)[:2] == scanned_singular(M)
    expected, _ = enumerated_certificate(M)
    verdict, witness, status = certify_irreducible(M)
    assert status.certified and verdict is expected
    if not verdict:
        assert is_proper_submodule(M, witness)
    found = _norton_kernel(M)
    if found is not None:
        kind, witness = found
        assert (kind == "irr") is expected
        if kind == "red":
            assert is_proper_submodule(M, witness)


def assert_minimal_pieces_match(M: LModule):
    """The socle decomposition loop, taking each minimal piece both ways."""
    soc, _ = socle_space(M)
    acc = Subspace.zero(M.field, M.dim)
    while acc.dim < soc.dim:
        W = spin(M, next(v for v in soc.basis if not acc.contains(v)))
        piece, status = _minimal_inside(M, W, acc)
        assert status.certified
        assert piece == enumerated_minimal_inside(M, W, acc)
        acc = acc.sum(piece)


def assert_matches(M: LModule):
    assert_certificate_matches(M)
    assert_minimal_pieces_match(M)


def conjugate(M: LModule, g: Matrix) -> LModule:
    """The same module in the basis given by the columns of g."""
    g_inv = invert_matrix(g)
    return LModule(M.algebra, [g_inv.matmul(rho).matmul(g) for rho in M.mats], validate=False)


def doubled(M: LModule, g: Matrix) -> LModule:
    """M + M in the basis given by the columns of g: the kernel of every
    element mixes the two copies, so one kernel vector can spin to all of
    it while the module is reducible."""
    F, d = M.field, M.dim
    zero = (F.zero(),) * d
    mats = [
        Matrix(F, [row + zero for row in rho.entries] + [zero + row for row in rho.entries])
        for rho in M.mats
    ]
    return conjugate(LModule(M.algebra, mats, validate=False), g)


def random_invertible(F, n: int, rng: random.Random) -> Matrix:
    while True:
        g = Matrix(F, [[rng.randrange(F.p) for _ in range(n)] for _ in range(n)])
        if invert_matrix(g) is not None:
            return g


@pytest.mark.parametrize("name,p", FINITE_CORPUS)
def test_certificate_matches_enumeration_on_corpus_modules(name, p):
    """Adjoint modules of the algebra and of its proper quotients along
    the chief series, their duals, and every chief-factor module."""
    L = builtin(name, GF(p))
    series = chief_series(L)
    modules = [adjoint_module(quotient_algebra(L, I).algebra) for I in series.chain[:-1]]
    modules += [transposed(M) for M in modules]
    modules += [f.module() for f in series.factors]
    for M in modules:
        assert_matches(M)


@st.composite
def matrix_algebra_modules(draw):
    """The natural modules of ``test_socle``'s commutator closures, over
    GF(2), GF(3) and GF(5)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    generators = draw(st.lists(entries, min_size=1, max_size=3))
    return natural_module(p, n, generators)


@given(matrix_algebra_modules(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_certificate_matches_enumeration_on_matrix_algebras(M, rng):
    """The natural module, its dual, and a doubled copy in a random basis
    when it has at most 1,000 vectors."""
    assume(M.dim > 0)  # no generator but zero: the zero module
    assert_matches(M)
    assert_matches(transposed(M))
    if M.field.p ** (2 * M.dim) <= 1000:
        assert_matches(doubled(M, random_invertible(M.field, 2 * M.dim, rng)))


def test_the_dual_spin_decides_a_nonsplit_extension():
    """r2 = <x, y> with [x, y] = y: ker ad x = <x> spins to all of r2, and
    only the dual spin finds the ideal <y>."""
    M = adjoint_module(builtin("r2", GF(3)))
    assert spin(M, (1, 0)).dim == 2
    kind, witness = _norton_kernel(M)
    assert kind == "red" and witness == Subspace.from_vectors(GF(3), 2, [(0, 1)])


def outer_tensor_square(F) -> LModule:
    """V (x) V for sl2 + sl2, the first summand acting on the left factor
    and the second on the right: irreducible, and every rho - lambda over
    its basis has nullity 0 or 2."""

    def kron(a, b):
        return [[a[i // 2][k // 2] * b[i % 2][k % 2] for k in range(4)] for i in range(4)]

    one = [[1, 0], [0, 1]]
    e, h, f = [[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]
    L = direct_sum(builtin("sl2", F), builtin("sl2", F))
    return LModule(
        L, [Matrix(F, kron(x, one)) for x in (e, h, f)] + [Matrix(F, kron(one, x)) for x in (e, h, f)]
    )


def test_the_budget_counts_the_kernel_points(monkeypatch):
    """The least nullity of the outer tensor square over GF(3) is 2: its
    kernel has (3^2 - 1)/2 = 4 projective points, which a budget of 4
    covers although it is below 3^2."""
    M = outer_tensor_square(GF(3))
    assert _least_singular(M)[0] == 2
    monkeypatch.setattr(modules, "VECTOR_ENUM_BUDGET", 4)
    assert _norton_kernel(M) == ("irr", None)
    monkeypatch.setattr(modules, "VECTOR_ENUM_BUDGET", 3)
    assert _norton_kernel(M) is None


def test_every_kernel_point_is_spun_when_the_nullity_exceeds_one():
    """Two copies of the outer tensor square in a random basis: the least
    nullity is 4, and a kernel vector (u1, u2) spins to a proper submodule
    only when u1 and u2 are proportional.  In this basis the first
    projective point of the kernel, and the first vector of the dual
    kernel, spin to the whole module, so only the later kernel points find
    the reducibility."""
    F = GF(3)
    S = outer_tensor_square(F)
    nullities = {
        S.dim - rref_solve(rho.sub(Matrix.identity(F, S.dim).scale(lam)))[1]
        for rho in S.mats
        for lam in range(3)
    }
    assert nullities == {0, 2}
    assert_matches(S)
    M = doubled(S, random_invertible(F, 8, random.Random(0)))
    assert certify_irreducible(M)[0] is False
    assert_matches(M)


def test_no_singular_element_is_certified_by_the_charpoly(monkeypatch):
    """ex22's two-dimensional factor over GF(3) is a rotation without
    eigenvalues: no rho - lambda is singular, and the irreducible t^2 + 1
    decides without spinning the projective points of the module."""
    L = builtin("ex22", GF(3))
    M = factor_module(L, L.span([(0, 1, 0, 0), (0, 0, 1, 0)]), L.zero_space()).module
    assert _norton_kernel(M) is None
    calls = []
    spin_points = modules._first_proper_spin
    monkeypatch.setattr(modules, "_first_proper_spin", lambda R: calls.append(R) or spin_points(R))
    verdict, witness, status = certify_irreducible(M)
    assert verdict is True and witness is None and status.certified
    assert calls == []


def test_no_rank_is_computed_when_no_rho_minus_lambda_is_singular(monkeypatch):
    """x acting on GF(10007)^4 by the companion of the irreducible
    t^4 + t + 6: its characteristic polynomial has no root, so no
    rho - lambda is eliminated."""
    L = x_acting_by_companion(GF(10007), [6, 1, 0, 0])
    M = factor_module(L, L.span([unit_vec(L.field, 5, i) for i in range(4)]), L.zero_space()).module
    calls = []
    monkeypatch.setattr(modules, "_rref_gf", lambda p, rows: calls.append(rows) or _rref_gf(p, rows))
    assert _norton_kernel(M) is None
    assert calls == []
