"""The GF(p) socle from composition factors and module maps, diffed against
the projective-point enumeration kept in the oracle, and the semi-echelon
spin kernel diffed against the span-closure loop it replaced."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.algebra import LieAlgebra, quotient_algebra
from liestruct.chief import chief_series
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, QuotientMap, Subspace, unit_vec, vec
from liestruct.modules import (
    LModule,
    _nonzero_vectors,
    adjoint_module,
    quotient_module,
    socle_space,
    spin,
)
from liestruct.oracle import socle_bf

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q

FINITE_CORPUS = [(name, 2) for name in CORPUS_GF2] + [(name, 3) for name in CORPUS_GF3]


def assert_socle_matches_oracle(M):
    soc, status = socle_space(M)
    assert status.certified
    assert soc == socle_bf(M)


@pytest.mark.parametrize("name,p", FINITE_CORPUS)
def test_socle_matches_oracle_on_corpus_modules(name, p):
    """Adjoint modules of the algebra and of every quotient along its chief
    series, and every chief-factor module."""
    L = builtin(name, GF(p))
    series = chief_series(L)
    for I in series.chain:
        assert_socle_matches_oracle(adjoint_module(quotient_algebra(L, I).algebra))
    for f in series.factors:
        assert_socle_matches_oracle(f.module())


def natural_module(p: int, n: int, generators) -> LModule:
    """The natural module F^n of the Lie algebra of n x n matrices spanned by
    the commutator closure of the generators, written as structure constants
    on the canonical basis of that span; F is GF(p), or Q when p is 0."""
    F = GF(p) if p else QQ

    def flat(A):
        return tuple(x for row in A.entries for x in row)

    span = Subspace.zero(F, n * n)
    closure: list = []
    todo = [Matrix(F, [g[i * n : (i + 1) * n] for i in range(n)]) for g in generators]
    while todo:
        A = todo.pop()
        if span.contains(flat(A)):
            continue
        span = span.sum(Subspace.from_vectors(F, n * n, [flat(A)]))
        todo.extend(A.matmul(B).sub(B.matmul(A)) for B in closure)
        closure.append(A)
    mats = [Matrix(F, [b[i * n : (i + 1) * n] for i in range(n)]) for b in span.basis]
    table = {
        (i, j): span.coords(flat(mats[i].matmul(mats[j]).sub(mats[j].matmul(mats[i]))))
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    }
    # Jacobi holds for commutators; the module checks the bracket law instead
    L = LieAlgebra(F, len(mats), table, validate=False)
    return LModule(L, mats)


@st.composite
def matrix_algebra_modules(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    generators = draw(st.lists(entries, min_size=1, max_size=3))
    return natural_module(p, n, generators)


@given(matrix_algebra_modules())
@settings(max_examples=120, deadline=None)
def test_socle_matches_oracle_on_matrix_algebras(M):
    assert_socle_matches_oracle(M)


def test_matrix_algebra_modules_cover_the_socle_cases():
    """The strategy's inputs include irreducible, semisimple reducible and
    non-semisimple natural modules."""
    irreducible = natural_module(3, 2, [(0, 1, 0, 0), (0, 0, 1, 0)])  # sl2
    semisimple = natural_module(3, 2, [(1, 0, 0, 2)])  # diag(1, -1)
    uniserial = natural_module(3, 2, [(0, 1, 0, 0)])  # one nilpotent matrix
    assert socle_space(irreducible)[0].dim == 2
    assert socle_space(semisimple)[0].dim == 2
    assert socle_space(uniserial)[0].dim == 1
    for M in (irreducible, semisimple, uniserial):
        assert_socle_matches_oracle(M)


def closure_spin(M: LModule, v) -> Subspace:
    """The span-closure loop that the semi-echelon kernel replaced."""
    F = M.field
    space = Subspace.from_vectors(F, M.dim, [v])
    queue = list(space.basis)
    while queue:
        w = queue.pop()
        for rho in M.mats:
            cand = rho.apply(w)
            if not space.contains(cand):
                space = space.sum(Subspace.from_vectors(F, M.dim, [cand]))
                queue.append(cand)
    return space


def transposed(M: LModule) -> LModule:
    return LModule(M.algebra, [rho.transpose() for rho in M.mats], validate=False)


@pytest.mark.parametrize(
    "name,field",
    [(n, QQ) for n in CORPUS_Q]
    + [(n, GF(2)) for n in CORPUS_GF2]
    + [(n, GF(3)) for n in CORPUS_GF3],
)
def test_spin_kernel_equals_the_closure_loop(name, field):
    rng = random.Random(f"spin:{name}:{field}")
    L = builtin(name, field)
    modules = [adjoint_module(L)] + [f.module() for f in chief_series(L).factors]
    for M in modules + [transposed(M) for M in modules]:
        for _ in range(12):
            v = vec(field, [rng.choice((0, 0, 1, -1, 2)) for _ in range(M.dim)])
            W = spin(M, v)
            assert W == closure_spin(M, v)
            assert W.pivots == closure_spin(M, v).pivots


def test_spin_transposed_is_spin_on_the_transposed_action():
    M = adjoint_module(builtin("aff_sl2", QQ))
    for i in range(M.dim):
        e = unit_vec(QQ, M.dim, i)
        assert spin(M.dual(), e) == closure_spin(transposed(M), e)


def _projective_points_by_filter(p: int, dim: int):
    for pattern in itertools.product(range(p), repeat=dim):
        if next((x for x in pattern if x != 0), None) == 1:
            yield pattern


@pytest.mark.parametrize("p", [2, 3, 5])
def test_projective_points_in_the_filtered_order(p):
    for dim in range(6):
        expected = list(_projective_points_by_filter(p, dim))
        assert list(_nonzero_vectors(GF(p), dim)) == expected
        assert len(expected) == (p**dim - 1) // (p - 1)


def test_quotient_module_is_the_induced_action():
    E = builtin("ex22", GF(3))
    M = adjoint_module(E)
    W = spin(M, vec(GF(3), (0, 1, 0, 0)))
    assert 0 < W.dim < M.dim
    Mq = quotient_module(M, W)
    LModule(E, Mq.mats)  # validates the bracket law
    qm = QuotientMap(M.full_space(), W)
    for rho, rho_q in zip(M.mats, Mq.mats):
        for i in range(M.dim):
            e = unit_vec(GF(3), M.dim, i)
            assert qm.project(rho.apply(e)) == rho_q.apply(qm.project(e))


def test_modules_compare_by_value():
    L = builtin("heis", GF(3))
    M1 = adjoint_module(L)
    # a second instance of the same value, from separately built matrices
    M2 = LModule(L, [L.ad(unit_vec(L.field, L.dim, i)) for i in range(L.dim)])
    assert M1.mats is not M2.mats
    assert all(a is not b for a, b in zip(M1.mats, M2.mats))
    assert M1 is not M2 and M1 == M2 and hash(M1) == hash(M2)
    assert M1 != transposed(M1)
