"""``core``, the derived and lower central series and
``subspace_is_solvable`` as chains of ``algebra._descending``, and
``complement_in_semisimple`` as the kernel of a projection solved on the
``hom_space`` basis, diffed against the four loops and the combined
equivariance-and-projection system they replaced, which are kept here
literally as the old definitions (the equivariance rows are the reference
of ``test_module_sections``).  The values must be equal: the same
terms in the same order, the same core of every subalgebra tried, and the
same complement of every spun submodule of a socle (hence the same minimal
ideals, which ``_minimal_inside`` picks through the complement).  Socles
that repeat a summand in a random basis are where a complement solved on
another basis of the hom space would differ."""

import random

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    _check_ambient,
    bracket_colon,
    bracket_spaces,
    core,
    derived_series,
    is_subalgebra,
    lower_central_series,
    sub_algebra,
    subspace_is_solvable,
)
from liestruct.chief import solvable_radical
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, QuotientMap, Subspace, invert_matrix, rref_solve
from liestruct.modules import (
    LModule,
    adjoint_module,
    complement_in_semisimple,
    restrict_module,
    socle_space,
    spin,
)
from liestruct.oracle import enum_structures

from conftest import CORPUS_GF2, CORPUS_Q, ref_add
from test_bracket_constructions import (
    basis_subalgebras,
    semidirect_sums,
    semidirect_sums_in_a_random_basis,
)
from test_module_sections import old_equivariance_rows
from test_socle import natural_module

CORPUS_GF5 = tuple(name for name in CORPUS_Q if name != "ex22")  # ex22 needs p = 3 mod 4


def old_core(L: LieAlgebra, U: Subspace) -> Subspace:
    _check_ambient(L, U)
    if not is_subalgebra(L, U):
        raise AlgebraError("core is only defined for subalgebras")
    full = L.full_space()
    current = U
    while True:
        nxt = bracket_colon(L, current, full, current)
        if nxt == current:
            return current
        current = nxt


def old_derived_series(L: LieAlgebra) -> list[Subspace]:
    out = [L.full_space()]
    while True:
        nxt = bracket_spaces(L, out[-1], out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
        if nxt.is_zero():
            break
    return out


def old_lower_central_series(L: LieAlgebra) -> list[Subspace]:
    out = [L.full_space()]
    while True:
        nxt = bracket_spaces(L, L.full_space(), out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
        if nxt.is_zero():
            break
    return out


def old_subspace_is_solvable(L: LieAlgebra, U: Subspace) -> bool:
    current = U
    while True:
        nxt = bracket_spaces(L, current, current)
        if nxt == current:
            return current.is_zero()
        current = nxt
        if current.is_zero():
            return True


def old_complement_in_semisimple(M: LModule, V: Subspace, U: Subspace) -> Subspace:
    """A submodule complement of U inside the semisimple submodule V."""
    F = M.field
    u, v = U.dim, V.dim
    if u == 0:
        return V
    qm = QuotientMap(V, Subspace.zero(F, M.dim))  # coordinates on V
    # Unknown projection X (u x v) with X|_U = id and X equivariant.
    rows = old_equivariance_rows(restrict_module(M, V), restrict_module(M, U))
    rhs = [F.zero()] * len(rows)
    for bidx, ub in enumerate(U.basis):
        cu = qm.project(ub)
        for i in range(u):
            coeff = [F.zero()] * (u * v)
            for k in range(v):
                coeff[i * v + k] = cu[k]
            rows.append(tuple(coeff))
            rhs.append(F.one() if i == bidx else F.zero())
    _, _, particular, _ = rref_solve(Matrix._of(F, rows, u * v), tuple(rhs))
    if particular is None:
        raise AlgebraError("no equivariant projection: subspace is not a direct summand")
    X = Matrix._of(F, [particular[i * v : (i + 1) * v] for i in range(u)], v)
    return qm.lift_space(rref_solve(X)[3])


def matrix_unit_algebra(p: int, n: int, kind: str) -> LieAlgebra:
    """gl(n), borel(n) (i <= j) or n(n) (i < j) over GF(p), or Q when p is
    0, as the commutator closure of its matrix units E_ij."""
    keep = {"gl": lambda i, j: True, "borel": lambda i, j: i <= j, "n": lambda i, j: i < j}[kind]
    units = [
        tuple(int(k == n * i + j) for k in range(n * n))
        for i in range(n)
        for j in range(n)
        if keep(i, j)
    ]
    return natural_module(p, n, units).algebra


MATRIX_UNITS = [("gl", 2), ("borel", 2), ("n", 3), ("borel", 3), ("gl", 3), ("n", 4)]
FIELDS = [(0, CORPUS_Q), (2, CORPUS_GF2), (3, CORPUS_Q), (5, CORPUS_GF5)]
ALGEBRAS = [
    (f"{name}-{'q' if p == 0 else f'gf{p}'}", lambda p=p, name=name: builtin(name, GF(p) if p else QQ))
    for p, names in FIELDS
    for name in names
] + [
    (f"{kind}({n})-{'q' if p == 0 else f'gf{p}'}", lambda p=p, kind=kind, n=n: matrix_unit_algebra(p, n, kind))
    for p, _ in FIELDS
    for kind, n in MATRIX_UNITS
]


def assert_chains_match(L: LieAlgebra):
    assert derived_series(L) == old_derived_series(L)
    assert lower_central_series(L) == old_lower_central_series(L)
    R, _ = solvable_radical(L)
    assert subspace_is_solvable(L, R) is old_subspace_is_solvable(L, R) is True
    full = L.full_space()
    assert subspace_is_solvable(L, full) is old_subspace_is_solvable(L, full)
    if not R.is_zero():
        rad = sub_algebra(L, R)
        assert derived_series(rad) == old_derived_series(rad)
        assert lower_central_series(rad) == old_lower_central_series(rad)


def assert_complements_match(M: LModule):
    """For each submodule U spun from a basis vector of the socle, or from
    the sum of two, the complement of U in the socle."""
    soc, _ = socle_space(M)
    seeds = list(soc.basis) + [ref_add(M.field, a, b) for a, b in zip(soc.basis, soc.basis[1:])]
    for w in seeds:
        U = spin(M, w)
        assert complement_in_semisimple(M, soc, U) == old_complement_in_semisimple(M, soc, U)
    zero = Subspace.zero(M.field, M.dim)
    assert complement_in_semisimple(M, soc, zero) == old_complement_in_semisimple(M, soc, zero)
    assert complement_in_semisimple(M, soc, soc) == old_complement_in_semisimple(M, soc, soc)


@pytest.mark.parametrize("name,build", ALGEBRAS, ids=[name for name, _ in ALGEBRAS])
def test_chains_cores_and_complements_match_the_old_code(name, build):
    L = build()
    assert_chains_match(L)
    for U in basis_subalgebras(L) if L.dim <= 6 else [L.full_space(), L.zero_space()]:
        assert core(L, U) == old_core(L, U)
    assert_complements_match(adjoint_module(L))


def random_basis(F, d: int, seed: int) -> Matrix:
    """g = (unit lower triangular) x (unit upper triangular) with random
    entries in {-1, 0, 1}, invertible over every field."""
    rng = random.Random(seed)

    def unitriangular(below):
        return Matrix(F, [
            [1 if i == j else rng.randint(-1, 1) if (j < i) == below else 0 for j in range(d)]
            for i in range(d)
        ])

    return unitriangular(True).matmul(unitriangular(False))


def power_in_a_random_basis(M: LModule, k: int, seed: int) -> LModule:
    """M + ... + M (k copies) in the basis given by the columns of
    ``random_basis``."""
    F, d = M.field, M.dim
    zero = (F.zero(),) * d
    g = random_basis(F, k * d, seed)
    g_inv = invert_matrix(g)
    mats = [
        Matrix(F, [zero * a + row + zero * (k - 1 - a) for a in range(k) for row in rho.entries])
        for rho in M.mats
    ]
    return LModule(M.algebra, [g_inv.matmul(rho).matmul(g) for rho in mats], validate=False)


# generators of matrix algebras acting on F^n: sl2 by E12 and E21, the
# rotation x of t^2 + 1, diag(1, 0), sl3 by E12, E21, E23 and E32
NATURAL = [
    (2, [(0, 1, 0, 0), (0, 0, 1, 0)]),
    (2, [(0, -1, 1, 0)]),
    (2, [(1, 0, 0, 0)]),
    (3, [tuple(int(k == m) for k in range(9)) for m in (1, 3, 5, 7)]),
]


@pytest.mark.parametrize("p", [0, 2, 3, 5], ids=["q", "gf2", "gf3", "gf5"])
def test_complements_match_in_repeated_summands(p):
    """Natural modules repeated two or three times in a random basis: the
    socle repeats a summand, so the hom spaces between its submodules have
    no basis of unit maps and the equivariant projection onto a submodule
    is one of many; both systems must pick the same one.  (Solved on the
    hom basis as ``hom_space`` returns it, reduced from the left, the
    projection differs on some of these.)"""
    seed = 0
    for n, generators in NATURAL:
        M = natural_module(p, n, generators)
        for k in (2, 3) if n == 2 else (2,):
            seed += 1
            assert_complements_match(power_in_a_random_basis(M, k, seed))


@pytest.mark.parametrize(
    "name,field",
    [(n, GF(2)) for n in CORPUS_GF2] + [(n, GF(3)) for n in CORPUS_Q],
    ids=[f"{n}-gf2" for n in CORPUS_GF2] + [f"{n}-gf3" for n in CORPUS_Q],
)
def test_cores_of_the_oracle_maximal_subalgebras_match(name, field):
    L = builtin(name, field)
    maximals = enum_structures(L).maximal_subalgebras
    assert maximals
    for U in maximals:
        assert core(L, U) == old_core(L, U)


@pytest.mark.parametrize("p", [2, 3], ids=["gf2", "gf3"])
def test_cores_of_the_oracle_maximal_subalgebras_of_matrix_units_match(p):
    for kind, n in [("gl", 2), ("borel", 2), ("n", 3)]:
        L = matrix_unit_algebra(p, n, kind)
        for U in enum_structures(L).maximal_subalgebras:
            assert core(L, U) == old_core(L, U)


@given(semidirect_sums())
@settings(max_examples=40, deadline=None)
def test_semidirect_sums_match_the_old_code(sum_and_n):
    L, n = sum_and_n
    assert_chains_match(L)
    N = L.span(L.full_space().basis[:n])  # the abelian ideal F^n
    for U in (N, L.span(L.full_space().basis[n:]), L.full_space()):
        if is_subalgebra(L, U):
            assert core(L, U) == old_core(L, U)
    assert_complements_match(adjoint_module(L))


@given(semidirect_sums_in_a_random_basis())
@settings(max_examples=40, deadline=None)
def test_complements_match_on_semidirect_sums_in_a_random_basis(sum_and_ideal):
    L, _ = sum_and_ideal
    assert_complements_match(adjoint_module(L))


def test_the_zero_algebra_is_one_term():
    for F in (QQ, GF(2)):
        L = LieAlgebra(F, 0, {})
        zero = L.zero_space()
        assert derived_series(L) == old_derived_series(L) == [zero]
        assert lower_central_series(L) == old_lower_central_series(L) == [zero]
        assert core(L, zero) == old_core(L, zero) == zero
        assert subspace_is_solvable(L, zero) is old_subspace_is_solvable(L, zero) is True


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "gf3"])
def test_a_subspace_that_is_not_a_summand_has_no_complement(field):
    """In the adjoint module of heis the centre Fz = [L, L] has no submodule
    complement: every module map L -> Fz vanishes on [L, L].  In that of
    r2, [x, y] = y, the ideal Fy has none, and Hom(L, Fy) = 0, so the
    system on the hom basis has no unknowns at all."""
    for name, U in (("heis", [(0, 0, 1)]), ("r2", [(0, 1)])):
        L = builtin(name, field)
        M, W = adjoint_module(L), L.span(U)
        for complement in (complement_in_semisimple, old_complement_in_semisimple):
            with pytest.raises(AlgebraError, match="not a direct summand"):
                complement(M, L.full_space(), W)
