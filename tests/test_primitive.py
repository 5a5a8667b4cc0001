import pytest

from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    centralizer,
    core,
    direct_sum,
    is_solvable,
    is_subalgebra,
    semidirect_sum,
    sub_algebra,
)
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, invert_matrix, unit_vec, vec
from liestruct.primitive import (
    NOT_PRIMITIVE,
    TYPE1,
    TYPE2,
    TYPE3,
    classify_primitive,
    core_free_conjugator,
    isomorphism_search,
    maximal_type,
    maximality_certificate,
    type_equivalence_witnesses,
)


class TestClassify:
    def test_r2_type1(self):
        w = classify_primitive(builtin("r2"))
        R = builtin("r2")
        assert w.verdict == TYPE1
        assert w.monolith == R.span([(0, 1)])
        assert w.core_free_maximal.dim == 1
        assert w.status.certified

    def test_sl2_type2(self):
        w = classify_primitive(builtin("sl2"))
        assert w.verdict == TYPE2 and w.status.certified

    def test_sl2_plus_sl2_type3_with_diagonal(self):
        D = builtin("sl2_plus_sl2")
        w = classify_primitive(D)
        assert w.verdict == TYPE3
        diag = D.span([(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)])
        assert w.common_complement == diag

    def test_the_core_free_maximal_search_checks_its_budget(self, monkeypatch):
        """sl2 has 2^3 - 2 = 6 proper nonzero basis subsets: within budget
        the search finds a core-free maximal, over it the search tests no
        subset and the type-2 verdict stays certified without a witness."""
        import sys

        from liestruct import modules, primitive

        body = primitive._find_core_free_maximal.__code__
        orig = primitive.is_subalgebra
        tested = []

        def noted(L, U):
            if sys._getframe(1).f_code is body:
                tested.append(U)
            return orig(L, U)

        monkeypatch.setattr(primitive, "is_subalgebra", noted)
        assert classify_primitive(builtin("sl2")).core_free_maximal is not None
        assert tested
        tested.clear()
        monkeypatch.setattr(modules, "VECTOR_ENUM_BUDGET", 5)
        w = classify_primitive(builtin("sl2"))
        assert w.verdict == TYPE2 and w.status.certified
        assert w.core_free_maximal is None
        assert tested == []

    def test_heis_not_primitive(self):
        w = classify_primitive(builtin("heis"))
        assert w.verdict == NOT_PRIMITIVE

    def test_remaining_corpus(self, corpus_q):
        expected = {
            "ab(1)": TYPE1,
            "ab(2)": NOT_PRIMITIVE,
            "ab(3)": NOT_PRIMITIVE,
            "ex22": NOT_PRIMITIVE,
            "gl2": NOT_PRIMITIVE,
            "aff_sl2": TYPE1,
            "h3_plus_r2": NOT_PRIMITIVE,
        }
        for name, verdict in expected.items():
            assert classify_primitive(corpus_q[name]).verdict == verdict

    def test_type1_monolith_self_centralizing_when_solvable(self, corpus_q):
        for L in corpus_q.values():
            w = classify_primitive(L)
            if w.verdict == TYPE1 and is_solvable(L):
                assert centralizer(L, w.monolith) == w.monolith

    def test_core_free_witness_is_core_free(self, corpus_q):
        for L in corpus_q.values():
            w = classify_primitive(L)
            if w.core_free_maximal is not None:
                assert is_subalgebra(L, w.core_free_maximal)
                assert core(L, w.core_free_maximal).is_zero()

    def test_type3_section_isomorphisms(self):
        # the two minimal ideals and the slice of the complement between
        # them are isomorphic algebras
        D = builtin("sl2_plus_sl2")
        w = classify_primitive(D)
        A, B = w.minimal_ideals
        U = w.common_complement
        slice_ = A.sum(B).intersect(U)
        TA = sub_algebra(D, A)
        TB = sub_algebra(D, B)
        TU = sub_algebra(D, slice_)
        assert isomorphism_search(TA, TB)[0] is not None
        assert isomorphism_search(TA, TU)[0] is not None


class TestAlgebraIsomorphism:
    def test_identity_tables(self):
        S = builtin("sl2")
        T = isomorphism_search(S, S)[0]
        assert T == Matrix.identity(QQ, 3)

    def test_scaled_table(self):
        from liestruct.algebra import LieAlgebra

        S = builtin("sl2")
        neg = LieAlgebra(QQ, 3, {k: tuple(-x for x in v) for k, v in S.table.items()})
        T = isomorphism_search(S, neg)[0]
        assert T is not None
        for i in range(3):
            for j in range(3):
                u, v = unit_vec(QQ, 3, i), unit_vec(QQ, 3, j)
                assert T.apply(S.bracket(u, v)) == neg.bracket(T.apply(u), T.apply(v))

    def test_unresolved_returns_none(self):
        assert isomorphism_search(builtin("sl2"), builtin("heis"))[0] is None


class TestMaximalType:
    def test_heis_ideal_maximal(self):
        H = builtin("heis")
        M = H.span([(1, 0, 0), (0, 0, 1)])
        rep = maximal_type(H, M)
        assert rep.core == M
        assert rep.quotient_witness.verdict == TYPE1

    def test_r2_line(self):
        R = builtin("r2")
        rep = maximal_type(R, R.span([(1, 0)]))
        assert rep.core.is_zero()
        assert rep.quotient_witness.verdict == TYPE1

    def test_diagonal_of_double_sl2(self):
        D = builtin("sl2_plus_sl2")
        diag = D.span([(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)])
        rep = maximal_type(D, diag)
        assert rep.core.is_zero()
        assert rep.quotient_witness.verdict == TYPE3
        assert rep.maximality.certified

    def test_non_subalgebra_rejected(self):
        S = builtin("sl2")
        with pytest.raises(AlgebraError):
            maximal_type(S, S.span([(1, 0, 0), (0, 0, 1)]))

    def test_quotients_by_maximal_cores_are_primitive_over_gf(self):
        from liestruct.algebra import quotient_algebra
        from liestruct.oracle import enum_structures, primitive_bf

        for name, p in (("r2", 2), ("r2", 3), ("heis", 2), ("heis", 3),
                        ("ex22", 3), ("ab(2)", 2), ("h3_plus_r2", 2)):
            L = builtin(name, GF(p))
            for M in enum_structures(L).maximal_subalgebras:
                q = quotient_algebra(L, core(L, M)).algebra
                assert primitive_bf(q).primitive

    def test_oracle_maximality_gate(self):
        H = builtin("heis", GF(3))
        with pytest.raises(AlgebraError):
            maximal_type(H, H.span([(0, 0, 1)]))  # z-line is not maximal


class TestCoreFreeConjugator:
    def test_r2_pair(self):
        R = builtin("r2")
        a = core_free_conjugator(R, R.span([(1, 0)]), R.span([(1, -1)]))
        assert a == vec(QQ, (0, 1))

    def test_equal_inputs(self):
        R = builtin("r2")
        U = R.span([(1, 0)])
        assert all(x == 0 for x in core_free_conjugator(R, U, U))

    def test_non_solvable_primitive_rejected(self):
        E = builtin("ex22")
        bcx = E.span([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        with pytest.raises(AlgebraError):
            core_free_conjugator(E, bcx, bcx)

    def test_gf3_exhaustive(self):
        from liestruct.oracle import enum_structures

        R = builtin("r2", GF(3))
        core_free = [
            M for M in enum_structures(R).maximal_subalgebras if core(R, M).is_zero()
        ]
        assert len(core_free) == 3
        for U1 in core_free:
            for U2 in core_free:
                a = core_free_conjugator(R, U1, U2)
                ada = R.ad(a)
                assert ada.matmul(ada).is_zero()


class TestTypeEquivalences:
    def test_r2_round_trip(self):
        R = builtin("r2")
        rep = type_equivalence_witnesses(R)
        assert rep.verdict == TYPE1
        assert rep.model.dim == 2
        assert rep.model_witness.verdict == TYPE1
        assert invert_matrix(rep.iso_matrix) is not None

    def test_sl2_plus_sl2_round_trip(self):
        D = builtin("sl2_plus_sl2")
        rep = type_equivalence_witnesses(D)
        assert rep.verdict == TYPE3 and rep.model.dim == 6
        assert rep.model_witness.verdict == TYPE3

    def test_aff_sl2_round_trip(self):
        A = builtin("aff_sl2")
        rep = type_equivalence_witnesses(A)
        assert rep.verdict == TYPE1 and rep.model.dim == 5
        assert rep.model_witness.verdict == TYPE1

    def test_sl2_inflation(self):
        S = builtin("sl2")
        rep = type_equivalence_witnesses(S)
        assert rep.verdict == TYPE2
        assert rep.model.dim == 6
        assert rep.model_witness.verdict == TYPE3
        # quotient by the new minimal ideal returns sl2 (iso matrix checked
        # inside; here we sanity-check the shape)
        assert rep.B.dim == 3

    def test_not_primitive_rejected(self):
        with pytest.raises(AlgebraError):
            type_equivalence_witnesses(builtin("heis"))


def _sl2_plus_so3():
    # two cross-centralizing simple ideals that are NOT isomorphic over the
    # rationals; deciding type 3 would need an isomorphism, so the bounded
    # search must answer "undecided" rather than guess
    from liestruct.algebra import LieAlgebra, direct_sum

    so3 = LieAlgebra(
        QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}
    )
    return direct_sum(builtin("sl2"), so3)


class TestUndecidedIsHonest:
    def test_sl2_plus_so3_undecided(self):
        L = _sl2_plus_so3()
        w = classify_primitive(L)
        assert w.verdict == "undecided"
        assert not w.status.certified
        # the socle analysis itself is exact: two simple minimal ideals
        from liestruct.modules import socle_and_minimal_ideals

        info = socle_and_minimal_ideals(L, L.zero_space())
        assert len(info.minimals) == 2 and info.status.certified


class TestMaximalityFlagOverQ:
    def test_rotation_plane_complement_is_certified(self):
        # codimension 2, but the quotient module is the irreducible rotation
        # plane, which is an exact maximality certificate
        E = builtin("ex22")
        M = E.span([(1, 0, 0, 0), (0, 0, 0, 1)])  # span{a, x}
        rep = maximal_type(E, M)
        assert rep.maximality.certified
        assert rep.core == E.span([(1, 0, 0, 0)])
        assert rep.quotient_witness.verdict == "type1"

    def test_uncertified_needs_caller_flag(self):
        # over the rationals no oracle is available; without a certificate
        # the caller must opt in, and the report flags the assumption
        H = builtin("heis")
        M = H.span([(0, 0, 1)])
        with pytest.raises(AlgebraError):
            maximal_type(H, M)
        rep = maximal_type(H, M, assume_maximal=True)
        assert not rep.maximality.certified


def cross_product_gf2() -> LieAlgebra:
    """The 3-dimensional simple algebra over GF(2) with [e0, e1] = e2,
    [e1, e2] = e0 and [e0, e2] = e1."""
    return LieAlgebra(GF(2), 3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, 1, 0)})


def outer_derivations_gf2() -> list:
    """The 24 derivations of ``cross_product_gf2`` that are not inner, by a
    scan of all 512 matrices over GF(2)."""
    import itertools

    S = cross_product_gf2()
    units = [unit_vec(GF(2), 3, i) for i in range(3)]

    def derives(D):
        return all(
            D.apply(S.bracket(x, y))
            == tuple((a + b) % 2 for a, b in zip(S.bracket(D.apply(x), y), S.bracket(x, D.apply(y))))
            for x, y in itertools.combinations(units, 2)
        )

    inner = {S.ad(x) for x in itertools.product(range(2), repeat=3)}
    mats = (Matrix(GF(2), [bits[0:3], bits[3:6], bits[6:9]]) for bits in itertools.product(range(2), repeat=9))
    outer = [D for D in mats if derives(D) and D not in inner]
    assert len(outer) == 24
    return outer


def _extension(B, D):
    """B extended by one element acting as the derivation D."""
    return semidirect_sum(B, LieAlgebra(B.field, 1, {}), [D])


def assert_core_free_maximal(L, U):
    assert is_subalgebra(L, U) and core(L, U).is_zero()
    assert maximality_certificate(L, U).certified


class TestNonabelianMonolith:
    """A unique nonabelian minimal ideal makes an algebra primitive of type
    2 over every field, with no enumeration."""

    def test_outer_derivation_extensions_over_gf2_are_type2_without_the_oracle(self, monkeypatch):
        from liestruct import oracle

        algebras = [_extension(cross_product_gf2(), D) for D in outer_derivations_gf2()]
        with monkeypatch.context() as m:
            m.setattr(oracle, "primitive_bf", lambda *a, **k: pytest.fail("the oracle was asked"))
            witnesses = [classify_primitive(L) for L in algebras]
        found = 0
        for L, w in zip(algebras, witnesses):
            assert w.verdict == TYPE2 and w.status.certified
            assert oracle.primitive_bf(L).verdict == TYPE2
            assert w.monolith.dim == 3 and not w.monolith.is_full()
            if w.core_free_maximal is not None:
                assert_core_free_maximal(L, w.core_free_maximal)
                found += 1
        assert found >= 15

    def test_pgl3_over_gf3_is_type2_with_a_witness(self):
        """gl3/Z over GF(3): the scalars lie in sl3, so the 8-dimensional
        quotient has the 7-dimensional psl3 as a proper monolith; its oracle
        would enumerate 127,902,864 subspaces."""
        import time

        from liestruct.algebra import center, quotient_algebra
        from test_larger_primes import matrix_units

        gl3 = matrix_units(3, 3, False)
        start = time.monotonic()
        pgl3 = quotient_algebra(gl3, center(gl3)).algebra
        w = classify_primitive(pgl3)
        assert time.monotonic() - start < 1.0
        assert w.verdict == TYPE2 and w.status.certified
        assert (pgl3.dim, w.monolith.dim) == (8, 7)
        assert_core_free_maximal(pgl3, w.core_free_maximal)

    def test_the_nonabelian_factor_of_gl3_over_gf3_has_a_certified_primitive_algebra(self):
        from liestruct.chief import chief_series
        from liestruct.primitive import associated_primitive_algebra
        from test_larger_primes import matrix_units

        (factor,) = [f for f in chief_series(matrix_units(3, 3, False)).factors if not f.abelian]
        ap = associated_primitive_algebra(factor)
        assert ap.witness.verdict == TYPE2 and ap.status.certified


class TestTheOracleExit:
    def test_two_minimal_ideals_with_a_proper_sum_ask_the_oracle(self, monkeypatch):
        """(S + S) extended by (D, D), for S the GF(2) cross-product algebra
        and D an outer derivation: two copies of S centralize each other
        and span a proper ideal, the one case the oracle decides."""
        from liestruct import oracle

        asked = []
        orig = oracle.primitive_bf

        def noted(L, *args):
            asked.append(L.dim)
            return orig(L, *args)

        S = cross_product_gf2()
        for D in outer_derivations_gf2():
            DD = Matrix(GF(2), [r + (0,) * 3 for r in D.entries] + [(0,) * 3 + r for r in D.entries])
            L = _extension(direct_sum(S, S), DD)
            with monkeypatch.context() as m:
                m.setattr(oracle, "primitive_bf", noted)
                w = classify_primitive(L)
            assert asked == [7]
            asked.clear()
            assert w.verdict == TYPE3 and w.status.certified
            assert w.verdict == oracle.primitive_bf(L).verdict
            assert sorted(M.dim for M in w.minimal_ideals) == [3, 3]
            assert is_subalgebra(L, w.core_free_maximal) and core(L, w.core_free_maximal).is_zero()
