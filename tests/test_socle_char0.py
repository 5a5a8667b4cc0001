"""The socle over Q from the radical of the acting algebra, diffed against
the trace-form radical of the unital enveloping algebra that it replaced,
which is kept here as the literal old definition, on corpus modules,
natural modules of matrix algebras, semidirect sums and corpus algebras in
a random basis; and the Killing radical against the radical that the socle
loop of ``chief.solvable_radical`` absorbs."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.algebra import bracket_spaces, killing_radical, quotient_algebra, semidirect_sum
from liestruct.chief import chief_series, solvable_radical
from liestruct.fields import QQ, Field
from liestruct.linalg import Matrix, Subspace, _modulus, _nonzeros, invert_matrix, lin_comb, rref_solve
from liestruct.modules import LModule, adjoint_module, enveloping_basis, socle_space

from conftest import CORPUS_Q
from test_isomorphism import transport
from test_socle import natural_module, transposed


def _trace_gram(F: Field, env: list[Matrix]) -> list[tuple]:
    """Gram matrix of the trace form, tr(AB) = sum of A_ij * B_ji: each
    matrix is flattened and transposed once, and zero entries are skipped."""
    flat_t = [[x for row in A.transpose().entries for x in row] for A in env]
    nonzero = [_nonzeros(x for row in A.entries for x in row) for A in env]
    zero = F.zero()
    p = _modulus(F)
    rows = []
    for nz in nonzero:
        row = []
        for bt in flat_t:
            s = zero
            for k, x in nz:
                y = bt[k]
                if y:
                    s += x * y
            row.append(s % p if p else s)
        rows.append(tuple(row))
    return rows


def _trace_form_radical(F: Field, env: list[Matrix]) -> list[Matrix]:
    """Radical of the enveloping algebra via the trace form (char 0 exact)."""
    rows = _trace_gram(F, env)
    _, _, _, null = rref_solve(Matrix(F, rows))
    d = env[0].rows
    flat = [tuple(x for row in A.entries for x in row) for A in env]
    rad = []
    for coeffs in null.basis:
        fv = lin_comb(F, coeffs, flat)
        rad.append(Matrix._of(F, [fv[i * d : (i + 1) * d] for i in range(d)], d))
    return rad


def trace_form_socle(M: LModule) -> Subspace:
    """The old Q branch of ``socle_space``: the common kernel of the radical
    of the enveloping algebra of the action."""
    F = M.field
    if M.dim == 0:
        return Subspace.zero(F, 0)
    soc = M.full_space()
    for r in _trace_form_radical(F, enveloping_basis(M)):
        _, _, _, ker = rref_solve(r)
        soc = soc.intersect(ker)
    return soc


def assert_socle_matches(M: LModule):
    soc, status = socle_space(M)
    assert status.certified
    assert soc == trace_form_socle(M)


def test_trace_gram_matches_the_matrix_product_trace():
    for name in CORPUS_Q:
        env = enveloping_basis(adjoint_module(builtin(name, QQ)))
        reference = [tuple(A.matmul(B).trace() for B in env) for A in env]
        assert _trace_gram(QQ, env) == reference, name


def series_modules(L) -> list:
    """The adjoint module of every quotient along the chief series, and
    every chief-factor module."""
    series = chief_series(L)
    return [adjoint_module(quotient_algebra(L, I).algebra) for I in series.chain] + [
        f.module() for f in series.factors
    ]


@pytest.mark.parametrize("name", CORPUS_Q)
def test_socle_matches_the_trace_form_on_corpus_modules(name):
    for M in series_modules(builtin(name, QQ)):
        assert_socle_matches(M)


def assert_killing_radical(L):
    R, K = killing_radical(L)
    assert R == solvable_radical(L)[0]
    assert K == R.intersect(bracket_spaces(L, L.full_space(), L.full_space()))


@pytest.mark.parametrize("name", CORPUS_Q)
def test_killing_radical_is_the_solvable_radical(name):
    assert_killing_radical(builtin(name, QQ))


@st.composite
def matrix_algebra_modules(draw, max_n=4):
    """The natural modules of ``test_socle``'s commutator closures, on
    integer matrices over Q."""
    n = draw(st.integers(1, max_n))
    entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)
    generators = draw(st.lists(entries, min_size=1, max_size=3))
    return natural_module(0, n, generators)


@given(matrix_algebra_modules())
@settings(max_examples=40, deadline=None)
def test_socle_matches_the_trace_form_on_matrix_algebras(M):
    assert_socle_matches(M)
    assert_socle_matches(transposed(M))


def test_a_radical_basis_outside_k_needs_the_kernel_of_k():
    """r2 = <x, y>, [x, y] = y, on the basis (x, x + y): no basis vector of
    R = r2 lies in K = <y>, and both act on the adjoint module with distinct
    eigenvalues 0 and 1, so only the kernel of ad y finds the socle <y>."""
    L = transport(builtin("r2", QQ), Matrix(QQ, [[1, -1], [0, 1]]))
    assert L.bracket((1, 0), (0, 1)) == (-1, 1)
    R, K = killing_radical(L)
    assert R.dim == 2 and K.dim == 1 and not any(K.contains(r) for r in R.basis)
    M = adjoint_module(L)
    assert socle_space(M)[0] == K
    assert_socle_matches(M)


def test_matrix_algebra_modules_cover_the_char0_cases():
    """The strategy's inputs include a radical element acting by a Jordan
    block, a nonzero K, and a Levi part with a nontrivial radical."""
    jordan = natural_module(0, 3, [(1, 1, 0, 0, 1, 0, 0, 0, 2)])  # J_2(1) + (2)
    borel = natural_module(0, 2, [(1, 0, 0, 0), (0, 1, 0, 0)])  # upper triangular
    gl2 = natural_module(0, 2, [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)])
    R, K = killing_radical(jordan.algebra)
    assert R.dim == 1 and K.is_zero()
    assert socle_space(jordan)[0].dim == 2
    R, K = killing_radical(borel.algebra)
    assert R.dim == 2 and K.dim == 1
    assert socle_space(borel)[0].dim == 1
    R, K = killing_radical(gl2.algebra)
    assert gl2.algebra.dim == 4 and R.dim == 1 and K.is_zero()
    assert socle_space(gl2)[0].dim == 2
    for M in (jordan, borel, gl2):
        assert_socle_matches(M)
        assert_killing_radical(M.algebra)


@given(matrix_algebra_modules(max_n=3))
@settings(max_examples=15, deadline=None)
def test_socle_matches_the_trace_form_on_semidirect_sums(M):
    """Q^n + L for the matrix algebra L acting on its natural module."""
    assume(M.dim > 0)  # no generator but zero: the zero module
    L = semidirect_sum(builtin(f"ab({M.dim})", QQ), M.algebra, M.mats)
    assert_socle_matches(adjoint_module(L))
    assert_killing_radical(L)


@st.composite
def rebased_corpus_algebras(draw):
    """A corpus algebra in a random basis with entries in {-1, 0, 1}."""
    L = builtin(draw(st.sampled_from(CORPUS_Q)), QQ)
    n = L.dim
    entries = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * n, max_size=n * n))
    g = Matrix(QQ, [entries[i * n : (i + 1) * n] for i in range(n)])
    assume(invert_matrix(g) is not None)
    return transport(L, g)


@given(rebased_corpus_algebras())
@settings(max_examples=10, deadline=None)
def test_socle_matches_the_trace_form_in_a_random_basis(L):
    for M in series_modules(L):
        assert_socle_matches(M)
    assert_killing_radical(L)
