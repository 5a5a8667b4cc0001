import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct.fields import GF, QQ
from liestruct.linalg import (
    DimensionMismatch,
    Matrix,
    QuotientMap,
    Subspace,
    invert_matrix,
    rref_solve,
    vec,
    vec_sub,
)


def span(F, n, rows):
    return Subspace.from_vectors(F, n, rows)


class TestRrefSolve:
    def test_identity_system(self):
        A = Matrix.identity(QQ, 2)
        rref, rank, particular, null = rref_solve(A, vec(QQ, (1, 2)))
        assert rank == 2
        assert particular == vec(QQ, (1, 2))
        assert null.is_zero()

    def test_proportional_rows(self):
        A = Matrix(QQ, [(1, 2), (2, 4)])
        rref, rank, _, null = rref_solve(A)
        assert rank == 1
        assert null == span(QQ, 2, [(-2, 1)])

    def test_gf2_full_rank_by_enumeration(self):
        # oracle: scan all 4 vectors of GF(2)^2 for kernel membership
        F = GF(2)
        A = Matrix(F, [(1, 1), (1, 0)])  # (1, 2) reduces to (1, 0) mod 2
        _, rank, _, null = rref_solve(A)
        kernel_bf = [
            v
            for v in itertools.product(range(2), repeat=2)
            if all((r[0] * v[0] + r[1] * v[1]) % 2 == 0 for r in A.entries)
        ]
        assert kernel_bf == [(0, 0)]
        assert rank == 2 and null.is_zero()

    def test_inconsistent_system(self):
        A = Matrix(QQ, [(1, 0), (1, 0)])
        _, _, particular, _ = rref_solve(A, vec(QQ, (1, 2)))
        assert particular is None

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rref_solve(Matrix.identity(QQ, 2), vec(QQ, (1, 2, 3)))


class TestSubspaceCanonicality:
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_shuffle_and_rescale_invariance(self, rows, rnd):
        U = span(QQ, 3, rows)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        rescaled = [[2 * x for x in r] for r in shuffled] + rows
        V = span(QQ, 3, rescaled)
        assert U == V
        assert U.basis == V.basis  # bit-identical canonical bases

    def test_zero_keeps_ambient(self):
        Z = Subspace.zero(QQ, 5)
        assert Z.ambient_dim == 5 and Z.dim == 0


class TestSumIntersect:
    def test_axis_sum(self):
        e1 = span(QQ, 3, [(1, 0, 0)])
        e2 = span(QQ, 3, [(0, 1, 0)])
        assert e1.sum(e2) == span(QQ, 3, [(1, 0, 0), (0, 1, 0)])

    def test_sum_idempotent(self):
        U = span(QQ, 3, [(1, 2, 3)])
        assert U.sum(U) == U

    def test_gf3_plane_from_two_lines(self):
        # oracle: GF(3)^2 has exactly 4 proper nonzero subspaces (the lines);
        # two distinct lines must span everything
        F = GF(3)
        U = span(F, 2, [(1, 1)])
        V = span(F, 2, [(0, 1)])
        lines = {span(F, 2, [v]).basis for v in itertools.product(range(3), repeat=2)
                 if v != (0, 0)}
        assert len(lines) == 4
        assert U.sum(V).is_full()

    def test_intersect_planes(self):
        U = span(QQ, 3, [(1, 0, 0), (0, 1, 0)])
        V = span(QQ, 3, [(0, 1, 0), (0, 0, 1)])
        assert U.intersect(V) == span(QQ, 3, [(0, 1, 0)])

    def test_intersect_with_full(self):
        U = span(QQ, 3, [(1, 2, 3)])
        assert U.intersect(Subspace.full(QQ, 3)) == U

    def test_distinct_lines_meet_trivially(self):
        U = span(QQ, 2, [(1, 1)])
        V = span(QQ, 2, [(1, 2)])
        assert U.intersect(V).is_zero()

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span(QQ, 2, [(1, 0)]).sum(span(QQ, 3, [(1, 0, 0)]))

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=0, max_size=3),
           st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=0, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_dimension_law(self, rows_u, rows_v):
        U = span(QQ, 4, rows_u)
        V = span(QQ, 4, rows_v)
        assert U.sum(V).dim + U.intersect(V).dim == U.dim + V.dim


class TestQuotientCoords:
    def test_line_in_plane(self):
        W = span(QQ, 3, [(1, 0, 0), (0, 1, 0)])
        U = span(QQ, 3, [(1, 0, 0)])
        qm = QuotientMap(W, U)
        assert qm.dim == 1
        assert any(x != 0 for x in qm.project(vec(QQ, (0, 1, 0))))
        assert all(x == 0 for x in qm.project(vec(QQ, (1, 0, 0))))

    def test_equal_spaces(self):
        W = span(QQ, 3, [(1, 1, 0)])
        qm = QuotientMap(W, W)
        assert qm.dim == 0

    def test_not_contained(self):
        with pytest.raises(ValueError):
            QuotientMap(span(QQ, 3, [(1, 0, 0)]), span(QQ, 3, [(0, 1, 0)]))

    @pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 3)])
    def test_exhaustive_project_lift(self, p, n):
        # oracle: enumerate every subspace pair U <= W and every coordinate
        # vector; project . lift must be the identity and ker(project) = U
        F = GF(p)
        from liestruct.oracle import iter_subspaces

        spaces = list(iter_subspaces(F, n))
        for W in spaces:
            for U in spaces:
                if not W.contains_space(U):
                    continue
                qm = QuotientMap(W, U)
                assert qm.dim == W.dim - U.dim
                for coords in itertools.product(range(p), repeat=qm.dim):
                    cv = vec(F, coords)
                    assert qm.project(qm.lift(cv)) == cv
                for wvec_coords in itertools.product(range(p), repeat=W.dim):
                    w = qm.W.basis
                    v = tuple(
                        sum(c * w[i][j] for i, c in enumerate(wvec_coords)) % p
                        for j in range(n)
                    )
                    killed = all(x == 0 for x in qm.project(vec(F, v)))
                    assert killed == U.contains(vec(F, v))

    def test_gf2_full_mod_e3(self):
        F = GF(2)
        W = Subspace.full(F, 3)
        U = span(F, 3, [(0, 0, 1)])
        qm = QuotientMap(W, U)
        assert qm.dim == 2
        for coords in itertools.product(range(2), repeat=2):
            assert qm.project(qm.lift(vec(F, coords))) == vec(F, coords)


@st.composite
def nested_subspaces(draw):
    """A field and subspaces B <= A <= C of F^n, each spanned by the rows
    of the smaller one and a few random rows."""
    F = draw(st.sampled_from([GF(2), GF(3), QQ]))
    n = draw(st.integers(1, 5))
    rows = st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=3)
    rb, ra, rc = draw(rows), draw(rows), draw(rows)
    B = span(F, n, [vec(F, r) for r in rb])
    A = span(F, n, [vec(F, r) for r in rb + ra])
    C = span(F, n, [vec(F, r) for r in rb + ra + rc])
    return B, A, C


@pytest.mark.parametrize("whole", [False, True], ids=["C", "full"])
@given(nested_subspaces())
@settings(max_examples=150, deadline=None)
def test_a_section_has_the_same_lifts_inside_a_larger_one(whole, spaces):
    """The RREF basis of A/B read inside C/B lifts to the lift basis of
    A/B itself, so a section's coordinates do not depend on the space it
    is read in (``QuotientMap``)."""
    B, A, C = spaces
    if whole:
        C = Subspace.full(C.field, C.ambient_dim)
    outer = QuotientMap(C, B)
    lifted = tuple(outer.lift(v) for v in outer.project_space(A).basis)
    assert lifted == QuotientMap(A, B).lifts


@st.composite
def spaces_and_vectors(draw):
    """A subspace U of F^n over Q, GF(2), GF(3) or GF(5), and vectors drawn
    inside U (combinations of its spanning rows), those plus a unit vector
    off U's pivots (outside U) and vectors drawn anywhere.  Over GF(p) the
    entries are unreduced integers, over Q ``Fraction``s."""
    F = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = draw(st.integers(1, 5))
    if F is QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        scalar = st.integers(-12, 12)
    vectors = st.lists(st.lists(scalar, min_size=n, max_size=n).map(tuple), max_size=4)
    rows = draw(vectors)
    U = span(F, n, rows)
    inside = [
        tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n))
        for coeffs in draw(st.lists(st.lists(scalar, min_size=len(rows), max_size=len(rows))))
    ]
    free = [t for t in range(n) if t not in U.pivots]
    outside = [
        tuple(x + (j == t) for j, x in enumerate(v))
        for v in inside
        for t in free[:1]
    ]
    return U, inside, outside, draw(vectors)


@given(spaces_and_vectors())
@settings(max_examples=300, deadline=None)
def test_membership_forms_agree_with_reduction(case):
    """``contains`` (the membership forms) against the residue of
    ``reduce``, and ``project_all`` raises exactly on the vectors outside."""
    U, inside, outside, anywhere = case
    F, n = U.field, U.ambient_dim
    assert all(U.contains(v) for v in inside)
    assert not any(U.contains(v) for v in outside)
    denominators = [Subspace.zero(F, n)] + [span(F, n, U.basis[:1])] * (U.dim > 0)
    for v in inside + outside + anywhere:
        inside_u = not any(U.reduce(v))
        assert U.contains(v) == inside_u
        for D in denominators:
            qm = QuotientMap(U, D)
            if inside_u:
                coords = qm.project_all([v])[0]
                assert D.contains(vec_sub(F, vec(F, v), qm.lift(coords)))
            else:
                with pytest.raises(ValueError):
                    qm.project_all([v])


class TestMatrixInverse:
    def test_invertible(self):
        M = Matrix(QQ, [(1, 2), (3, 5)])
        Minv = invert_matrix(M)
        assert M.matmul(Minv) == Matrix.identity(QQ, 2)

    def test_singular(self):
        assert invert_matrix(Matrix(QQ, [(1, 2), (2, 4)])) is None
