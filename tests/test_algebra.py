import pytest

from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    AntisymmetryViolation,
    JacobiViolation,
    LieAlgebra,
    bracket_spaces,
    center,
    centralizer,
    characteristic_series,
    core,
    derived_series,
    direct_sum,
    factor_centralizer,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    lower_central_series,
    nilpotent_automorphism,
    quotient_algebra,
    semidirect_sum,
    sub_algebra,
    validate_algebra,
)
from liestruct.fields import GF, QQ
from liestruct.linalg import DimensionMismatch, Matrix, unit_vec, vec


def full_table(dim, entries):
    """Build a dim^3 table from {(i, j): vector} with antisymmetry filled in."""
    tbl = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in entries.items():
        tbl[i][j] = list(v)
        tbl[j][i] = [-x for x in v]
    return tbl


class TestValidation:
    def test_abelian_valid(self):
        L = validate_algebra(QQ, 3, full_table(3, {}))
        assert L.dim == 3 and not L.table

    def test_r2_valid(self):
        L = validate_algebra(QQ, 2, full_table(2, {(0, 1): (0, 1)}))
        assert L.bracket(vec(QQ, (1, 0)), vec(QQ, (0, 1))) == vec(QQ, (0, 1))

    def test_so3_type_tables(self):
        # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e1 is a valid algebra; so is the
        # variant with [e1,e2]=2e3: every Jacobi term brackets parallel
        # vectors, so the sum telescopes to zero either way (direct expansion)
        base = {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0), (1, 2): (1, 0, 0)}
        validate_algebra(QQ, 3, full_table(3, base))
        mutated = dict(base)
        mutated[(0, 1)] = (0, 0, 2)
        validate_algebra(QQ, 3, full_table(3, mutated))

    def test_jacobi_violation_with_indices(self):
        # [e1,e2]=e3, [e1,e3]=e1 leaves [[e3,e1],e2] = -e3 unbalanced
        bad = full_table(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
        with pytest.raises(JacobiViolation) as exc:
            validate_algebra(QQ, 3, bad)
        assert exc.value.indices == (0, 1, 2)

    def test_antisymmetry_violation(self):
        tbl = full_table(2, {(0, 1): (0, 1)})
        tbl[1][0] = [0, 1]  # should be the negation
        with pytest.raises(AntisymmetryViolation) as exc:
            validate_algebra(QQ, 2, tbl)
        assert exc.value.indices == (0, 1)

    @pytest.mark.parametrize("k", [0, 1])
    def test_a_vector_of_the_wrong_length_is_a_dimension_mismatch(self, k):
        """In either order of the pair, also where the entries up to dim
        are antisymmetric."""
        tbl = full_table(2, {(0, 1): (0, 1)})
        tbl[k][1 - k] = list(tbl[k][1 - k]) + [5]
        with pytest.raises(DimensionMismatch):
            validate_algebra(QQ, 2, tbl)

    def test_diagonal_violation(self):
        tbl = full_table(2, {})
        tbl[1][1] = [1, 0]
        with pytest.raises(AntisymmetryViolation) as exc:
            validate_algebra(QQ, 2, tbl)
        assert exc.value.indices == (1, 1)


class TestBracketSpaces:
    def test_heis_generators(self):
        H = builtin("heis")
        U = H.span([(1, 0, 0)])
        V = H.span([(0, 1, 0)])
        assert bracket_spaces(H, U, V) == H.span([(0, 0, 1)])

    def test_zero_absorbs(self):
        H = builtin("heis")
        assert bracket_spaces(H, H.full_space(), H.zero_space()).is_zero()

    def test_sl2_perfect(self):
        S = builtin("sl2")
        assert bracket_spaces(S, S.full_space(), S.full_space()).is_full()

    def test_symmetry_on_corpus(self, corpus_q):
        for L in corpus_q.values():
            U = L.span([L.basis_names and unit_vec(L.field, L.dim, 0)])
            V = L.full_space()
            assert bracket_spaces(L, U, V) == bracket_spaces(L, V, U)


class TestCentralizer:
    def test_published_example_values(self):
        E = builtin("ex22")
        abc = E.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        assert centralizer(E, E.span([(1, 0, 0, 0)])) == abc
        assert centralizer(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)])) == abc

    def test_abelian_centralizes_everything(self):
        A = builtin("ab(3)")
        assert centralizer(A, A.span([(1, 1, 0)])).is_full()

    def test_heis_by_hand(self):
        H = builtin("heis")
        assert centralizer(H, H.span([(0, 0, 1)])).is_full()
        assert centralizer(H, H.span([(1, 0, 0)])) == H.span([(1, 0, 0), (0, 0, 1)])

    def test_factor_centralizer_matches_module_kernel(self):
        # dual route: the kernel of the factor-module action
        from liestruct.modules import factor_module

        H = builtin("heis")
        A = H.span([(0, 0, 1), (0, 1, 0)])
        B = H.span([(0, 0, 1)])
        fm = factor_module(H, A, B)
        assert factor_centralizer(H, A, B) == fm.module.kernel_of_action()


class TestCore:
    def test_r2_line_has_trivial_core(self):
        R = builtin("r2")
        assert core(R, R.span([(1, 0)])).is_zero()

    def test_whole_algebra(self):
        H = builtin("heis")
        assert core(H, H.full_space()).is_full()

    def test_heis_xz_is_its_own_core(self):
        H = builtin("heis")
        xz = H.span([(1, 0, 0), (0, 0, 1)])
        assert core(H, xz) == xz  # [y,x] = -z stays inside, so xz is an ideal

    def test_requires_subalgebra(self):
        S = builtin("sl2")
        with pytest.raises(AlgebraError):
            core(S, S.span([(1, 0, 0), (0, 0, 1)]))  # e, f do not close

    @pytest.mark.parametrize("name,p", [("r2", 2), ("heis", 3), ("h3_plus_r2", 2)])
    def test_against_ideal_enumeration(self, name, p):
        from liestruct.oracle import enum_structures

        L = builtin(name, GF(p))
        st = enum_structures(L)
        for U in st.subalgebras:
            inside = [I for I in st.ideals if U.contains_space(I)]
            best = max(inside, key=lambda I: I.dim)
            assert core(L, U) == best


class TestSeries:
    def test_abelian(self):
        A = builtin("ab(3)")
        der, lcs, Z = characteristic_series(A)
        assert [d.dim for d in der] == [3, 0]
        assert Z.is_full()

    def test_r2_solvable_not_nilpotent(self):
        R = builtin("r2")
        der = derived_series(R)
        assert [d.dim for d in der] == [2, 1, 0]
        lcs = lower_central_series(R)
        assert lcs[-1] == R.span([(0, 1)])  # stabilizes at <y>
        assert is_solvable(R) and not is_nilpotent(R)

    def test_sl2_not_solvable(self):
        S = builtin("sl2")
        assert not is_solvable(S)
        assert center(S).is_zero()


class TestQuotient:
    def test_heis_mod_center_is_abelian(self):
        H = builtin("heis")
        qa = quotient_algebra(H, H.span([(0, 0, 1)]))
        assert qa.algebra.dim == 2 and not qa.algebra.table

    def test_quotient_by_zero_is_same_table(self):
        H = builtin("heis")
        qa = quotient_algebra(H, H.zero_space())
        assert qa.algebra.table == H.table

    def test_ex22_mod_plane_is_r2(self):
        E = builtin("ex22")
        qa = quotient_algebra(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]))
        Q = qa.algebra
        assert Q.dim == 2
        # images of a and x satisfy [abar, xbar] = -abar, the r2 relation
        abar = qa.project(vec(QQ, (1, 0, 0, 0)))
        xbar = qa.project(vec(QQ, (0, 0, 0, 1)))
        assert Q.bracket(xbar, abar) == abar

    def test_requires_ideal(self):
        H = builtin("heis")
        with pytest.raises(AlgebraError):
            quotient_algebra(H, H.span([(1, 0, 0)]))

    def test_projection_is_homomorphism(self):
        E = builtin("ex22")
        qa = quotient_algebra(E, E.span([(1, 0, 0, 0)]))
        for i in range(4):
            for j in range(4):
                u, v = unit_vec(QQ, 4, i), unit_vec(QQ, 4, j)
                assert qa.project(E.bracket(u, v)) == qa.algebra.bracket(
                    qa.project(u), qa.project(v)
                )


class TestSemidirect:
    def test_scalar_action_gives_r2(self):
        B = LieAlgebra(QQ, 1, {})
        Q = LieAlgebra(QQ, 1, {})
        X = semidirect_sum(B, Q, [Matrix.identity(QQ, 1)])
        R = builtin("r2")
        # [q, b] = b matches [x, y] = y after swapping basis order
        assert X.bracket(vec(QQ, (0, 1)), vec(QQ, (1, 0))) == vec(QQ, (1, 0))

    def test_zero_action_is_direct_sum(self):
        H = builtin("heis")
        R = builtin("r2")
        X = direct_sum(H, R)
        hpart = X.span([unit_vec(QQ, 5, i) for i in range(3)])
        rpart = X.span([unit_vec(QQ, 5, i) for i in (3, 4)])
        assert is_ideal(X, hpart) and is_ideal(X, rpart)
        assert X.table == builtin("h3_plus_r2").table

    def test_aff_sl2_minimal_ideal_is_the_module(self):
        # ideal enumeration via spinning from module vectors
        from liestruct.modules import adjoint_module, spin

        A = builtin("aff_sl2")
        M = adjoint_module(A)
        V2 = A.span([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
        assert spin(M, vec(QQ, (1, 0, 0, 0, 0))) == V2
        assert is_ideal(A, V2)

    def test_non_derivation_rejected(self):
        R = builtin("r2")
        Q = LieAlgebra(QQ, 1, {})
        with pytest.raises(AlgebraError):
            semidirect_sum(R, Q, [Matrix(QQ, [(1, 0), (0, 1)])])  # id is not a derivation of r2

    def test_non_homomorphism_rejected(self):
        B = LieAlgebra(QQ, 2, {})
        S = builtin("sl2")
        bad = [Matrix.identity(QQ, 2), Matrix.zero(QQ, 2, 2), Matrix.zero(QQ, 2, 2)]
        with pytest.raises(AlgebraError):
            semidirect_sum(B, S, bad)


class TestNilpotentAutomorphism:
    def test_zero_is_identity(self):
        H = builtin("heis")
        phi = nilpotent_automorphism(H, vec(QQ, (0, 0, 0)))
        assert phi.matrix == Matrix.identity(QQ, 3)

    def test_heis_translation(self):
        H = builtin("heis")
        phi = nilpotent_automorphism(H, vec(QQ, (1, 0, 0)))  # a = x
        assert phi.apply(vec(QQ, (0, 1, 0))) == vec(QQ, (0, 1, 1))  # y + [x,y] = y + z

    def test_r2_moves_complement(self):
        R = builtin("r2")
        phi = nilpotent_automorphism(R, vec(QQ, (0, 1)))  # a = y
        assert phi.apply(vec(QQ, (1, 0))) == vec(QQ, (1, -1))  # x + [y,x] = x - y
        assert phi.apply_space(R.span([(1, 0)])) == R.span([(1, -1)])

    def test_not_nilpotent_rejected(self):
        R = builtin("r2")
        with pytest.raises(AlgebraError):
            nilpotent_automorphism(R, vec(QQ, (1, 0)))  # ad x has eigenvalue 1

    def test_char_p_index_bound(self):
        H2 = builtin("heis", GF(2))
        with pytest.raises(AlgebraError):
            nilpotent_automorphism(H2, vec(GF(2), (1, 0, 0)))  # index 2 over GF(2)
        H3 = builtin("heis", GF(3))
        phi = nilpotent_automorphism(H3, vec(GF(3), (1, 0, 0)))
        assert phi.apply(vec(GF(3), (0, 1, 0))) == vec(GF(3), (0, 1, 1))

    def test_bracket_preservation_on_corpus(self, corpus_q):
        H = corpus_q["heis"]
        phi = nilpotent_automorphism(H, vec(QQ, (2, 3, 1)))
        for i in range(3):
            for j in range(3):
                u, v = unit_vec(QQ, 3, i), unit_vec(QQ, 3, j)
                assert phi.apply(H.bracket(u, v)) == H.bracket(phi.apply(u), phi.apply(v))


class TestSubAlgebraRestriction:
    def test_sl2_block_of_direct_sum(self):
        D = builtin("sl2_plus_sl2")
        S1 = D.span([unit_vec(QQ, 6, i) for i in range(3)])
        assert sub_algebra(D, S1).table == builtin("sl2").table


class TestIdealFlags:
    def test_flags_agree_with_bracket_checks(self):
        from liestruct.algebra import ideal_flags

        H = builtin("heis")
        f1 = ideal_flags(H, H.span([(1, 0, 0), (0, 0, 1)]))
        assert f1.is_subalgebra and f1.is_ideal
        f2 = ideal_flags(H, H.span([(1, 0, 0)]))
        assert f2.is_subalgebra and not f2.is_ideal
        S = builtin("sl2")
        f3 = ideal_flags(S, S.span([(1, 0, 0), (0, 0, 1)]))  # e, f do not close
        assert not f3.is_subalgebra and not f3.is_ideal


class TestBracketSymmetryInvariant:
    def test_random_span_pairs(self, corpus_q):
        import random

        rnd = random.Random(20240809)
        for L in corpus_q.values():
            n = L.dim
            for _ in range(4):
                U = L.span([[rnd.randint(-2, 2) for _ in range(n)] for _ in range(2)])
                V = L.span([[rnd.randint(-2, 2) for _ in range(n)] for _ in range(2)])
                assert bracket_spaces(L, U, V) == bracket_spaces(L, V, U)


class TestQuotientChainInvariant:
    def test_projected_chains_keep_inclusions_and_dims(self, corpus_q):
        from liestruct.chief import chief_series

        for L in corpus_q.values():
            S = chief_series(L)
            if len(S.chain) < 3:
                continue
            I = S.chain[1]
            qa = quotient_algebra(L, I)
            prev = None
            for C in S.chain[1:]:
                img = qa.project_space(C)
                assert img.dim == C.dim - I.dim
                if prev is not None:
                    assert img.contains_space(prev)
                prev = img
