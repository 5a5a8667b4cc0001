import pytest
from hypothesis import assume, given, settings

from liestruct import builtin
from liestruct.algebra import core
from liestruct.chief import chief_series, chief_series_variants
from liestruct.crowns import all_crowns
from liestruct.fields import GF, QQ
from liestruct.modules import adjoint_module, socle_space
from liestruct.status import CERTIFIED
from liestruct.oracle import (
    BudgetExceeded,
    EnumBudget,
    enum_structures,
    four_core_intersections,
    frattini_objects,
    gaussian_binomial,
    iter_subspaces,
    oracle_check,
    prefrattini_bf,
    primitive_bf,
    socle_bf,
    subspace_count,
)

from test_bracket_constructions import colon_inputs, semidirect_sums
from test_larger_primes import matrix_units
from test_memo import borel3_over_gf3


class TestEnumeration:
    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_counts_match_gaussian_binomials(self, n, p):
        F = GF(p)
        spaces = list(iter_subspaces(F, n))
        assert len(spaces) == subspace_count(n, p)
        assert len(set(s.basis for s in spaces)) == len(spaces)
        by_dim = {}
        for s in spaces:
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        for k in range(n + 1):
            assert by_dim.get(k, 0) == gaussian_binomial(n, k, p)

    def test_abelian_dim2_gf2(self):
        A = builtin("ab(2)", GF(2))
        st = enum_structures(A)
        assert len(st.subalgebras) == 5  # every subspace
        assert len(st.maximal_subalgebras) == 3  # the three lines

    def test_heis_gf3_maximals_contain_z(self):
        H = builtin("heis", GF(3))
        st = enum_structures(H)
        z = (0, 0, 1)
        assert len(st.maximal_subalgebras) == 4
        for M in st.maximal_subalgebras:
            assert M.dim == 2 and M.contains(z)

    def test_r2_gf3_maximals(self):
        R = builtin("r2", GF(3))
        st = enum_structures(R)
        assert len(st.maximal_subalgebras) == 4
        assert R.span([(0, 1)]) in st.maximal_subalgebras

    def test_budget_exceeded_reports_exact_count(self):
        H = builtin("heis", GF(3))
        with pytest.raises(BudgetExceeded) as exc:
            enum_structures(H, EnumBudget(max_subspaces=10))
        assert exc.value.needed == subspace_count(3, 3) == 28  # 1 + 13 + 13 + 1

    def test_field_order_gate(self):
        S = builtin("sl2", GF(5))
        with pytest.raises(BudgetExceeded):
            enum_structures(S)  # default max_field_order = 4
        enum_structures(S, EnumBudget(max_field_order=5))

    def test_socle_bf_has_the_same_field_order_gate(self):
        M = adjoint_module(builtin("heis", GF(5)))
        with pytest.raises(BudgetExceeded) as exc:
            socle_bf(M)  # default max_field_order = 4
        assert (exc.value.needed, exc.value.allowed) == (5, 4)
        assert socle_bf(M, EnumBudget(max_field_order=5)) == socle_space(M)[0]

    def test_rationals_rejected(self):
        with pytest.raises(BudgetExceeded):
            enum_structures(builtin("r2", QQ))
        with pytest.raises(BudgetExceeded):
            socle_bf(adjoint_module(builtin("r2", QQ)))


class TestFrattini:
    def test_heis_gf3(self):
        H = builtin("heis", GF(3))
        phi_sub, phi = frattini_objects(H)
        z = H.span([(0, 0, 1)])
        assert phi_sub == z and phi == z

    def test_r2_gf3(self):
        R = builtin("r2", GF(3))
        phi_sub, phi = frattini_objects(R)
        assert phi_sub.is_zero() and phi.is_zero()

    def test_ab1(self):
        A = builtin("ab(1)", GF(2))
        phi_sub, phi = frattini_objects(A)
        assert phi_sub.is_zero()


class TestPrimitiveBF:
    def test_r2_gf3(self):
        w = primitive_bf(builtin("r2", GF(3)))
        assert w.verdict == "type1" and w.core_free_maximal is not None

    def test_heis_gf3(self):
        assert primitive_bf(builtin("heis", GF(3))).verdict == "not_primitive"

    def test_sl2_gf5(self):
        S = builtin("sl2", GF(5))
        w = primitive_bf(S, EnumBudget(max_field_order=5))
        assert w.verdict == "type2"
        assert S.span([(1, 0, 0), (0, 1, 0)]) in (w.core_free_maximal,) or core(
            S, w.core_free_maximal
        ).is_zero()


class TestPrefrattiniBF:
    def test_r2_gf3(self):
        R = builtin("r2", GF(3))
        pf, _ = prefrattini_bf(R, chief_series(R))
        assert [p.basis for p in pf] == [R.zero_space().basis]

    def test_heis_gf3(self):
        H = builtin("heis", GF(3))
        pf, choice_sets = prefrattini_bf(H, chief_series(H))
        assert [p.basis for p in pf] == [H.span([(0, 0, 1)]).basis]
        assert len(choice_sets) == 2  # two non-Frattini indices

    def test_abelian_dim2_gf2(self):
        A = builtin("ab(2)", GF(2))
        pf, _ = prefrattini_bf(A, chief_series(A))
        assert [p.basis for p in pf] == [A.zero_space().basis]

    @pytest.mark.parametrize("name,p", [("r2", 3), ("heis", 3), ("heis", 2),
                                        ("ex22", 3), ("h3_plus_r2", 2)])
    def test_independent_of_series(self, name, p):
        L = builtin(name, GF(p))
        sets = set()
        for S in chief_series_variants(L, limit=4):
            pf, _ = prefrattini_bf(L, S)
            sets.add(frozenset(p.basis for p in pf))
        assert len(sets) == 1


class TestLemmaIntersections:
    @pytest.mark.parametrize("name,p", [("r2", 3), ("heis", 3), ("ex22", 3),
                                        ("h3_plus_r2", 2), ("ab(2)", 3)])
    def test_four_intersections_coincide(self, name, p):
        from liestruct.crowns import all_crowns

        L = builtin(name, GF(p))
        S = chief_series(L)
        for crown in all_crowns(L, S):
            inters = four_core_intersections(L, crown.class_rep, S)
            assert len({i.basis for i in inters}) == 1
            assert inters[0] == crown.R


# Dimension-6 algebras over GF(3), built outside the builtins: the upper
# triangular and the strictly upper triangular 4 x 4 matrices.
GATE_ALGEBRAS = {
    ("borel3", 3): borel3_over_gf3,
    ("n4", 3): lambda: matrix_units(3, 4, strict=True),
}


class TestOracleCheck:
    @pytest.mark.parametrize("name,p", [("r2", 2), ("r2", 3), ("heis", 2),
                                        ("heis", 3), ("ex22", 3), ("gl2", 3),
                                        ("ab(3)", 2), ("h3_plus_r2", 2),
                                        *GATE_ALGEBRAS])
    def test_full_agreement(self, name, p):
        build = GATE_ALGEBRAS.get((name, p), lambda: builtin(name, GF(p)))
        assert oracle_check(build()) == []

    @pytest.mark.parametrize("name,wrong", [("gl2", "full"), ("gl2", "zero"), ("heis", "zero")])
    def test_a_wrong_radical_is_reported(self, monkeypatch, name, wrong):
        """The radical of gl2 is its center and that of heis is heis; the
        oracle reads the reported radical and compares it with the
        intersection of the type-2/3 core quotients."""
        import liestruct.chief as chief

        L = builtin(name, GF(3))
        assert oracle_check(L) == []
        monkeypatch.setattr(
            chief, "solvable_radical", lambda L: (getattr(L, f"{wrong}_space")(), CERTIFIED)
        )
        assert oracle_check(L) == [
            "radical: analytic radical differs from the type-2/3 core intersection"
        ]

    def test_too_many_crown_choices_raise_instead_of_skipping(self, monkeypatch):
        """The prefrattini sets via crowns intersect one complement per
        crown over all choices; past the budget that is an error, as in
        prefrattini_bf, never a silently skipped comparison."""
        import liestruct.oracle as oracle

        L = builtin("r2", GF(3))
        assert all_crowns(L, chief_series(L))
        monkeypatch.setattr(
            oracle, "complements_bf", lambda L, A, B, budget: (L.full_space(),) * 101
        )
        with pytest.raises(BudgetExceeded, match="choice functions"):
            oracle_check(L, EnumBudget(max_subspaces=100))


@given(semidirect_sums())
@settings(max_examples=100, deadline=None)
def test_the_oracle_agrees_on_semidirect_sums(sum_and_n):
    """F^n + L for a matrix algebra L over GF(2) or GF(3), of dimension at
    most 6."""
    L, _ = sum_and_n
    assume(L.field != QQ and L.dim <= 6)
    assert oracle_check(L) == []


@given(colon_inputs())
@settings(max_examples=50, deadline=None)
def test_the_oracle_agrees_in_a_random_basis(inputs):
    """Corpus algebras of dimension at most 5 over GF(2) or GF(3), in a
    random basis."""
    assert oracle_check(inputs[0]) == []
