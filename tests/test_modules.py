import itertools
import time

import pytest

from liestruct import builtin
from liestruct.algebra import AlgebraError, brackets_inside, is_ideal, is_subalgebra, semidirect_sum
from liestruct.chief import chief_series, module_isomorphic
from liestruct.cli import build_report
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix, unit_vec, vec
from liestruct.modules import (
    LModule,
    adjoint_module,
    certify_irreducible,
    factor_module,
    hom_space,
    module_isomorphism,
    restrict_module,
    socle_and_minimal_ideals,
    spin,
    split_abelian_extension,
)

from conftest import CORPUS_GF2, CORPUS_Q


def x_acting_by_companion(F, tail):
    """F^n + <x>, x acting on the abelian ideal F^n by the companion matrix
    of the monic polynomial whose lower coefficients are ``tail``."""
    n = len(tail)
    C = Matrix(F, [[int(i == j + 1) for j in range(n - 1)] + [-tail[i]] for i in range(n)])
    return semidirect_sum(builtin(f"ab({n})", F), builtin("ab(1)", F), [C])


class TestFactorModule:
    def test_rotation_block_of_ex22(self):
        E = builtin("ex22")
        fm = factor_module(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space())
        assert fm.module.dim == 2
        # x acts on (b, c) by the rotation-type matrix, a/b/c act by zero
        assert fm.module.mats[3] == Matrix(QQ, [(0, -1), (1, 0)])
        for i in range(3):
            assert fm.module.mats[i].is_zero()

    def test_zero_section(self):
        H = builtin("heis")
        A = H.span([(0, 0, 1)])
        fm = factor_module(H, A, A)
        assert fm.module.dim == 0

    def test_central_line_is_trivial_module(self):
        H = builtin("heis")
        fm = factor_module(H, H.span([(0, 0, 1)]), H.zero_space())
        assert all(m.is_zero() for m in fm.module.mats)

    def test_requires_ideals(self):
        H = builtin("heis")
        with pytest.raises(AlgebraError):
            factor_module(H, H.span([(1, 0, 0)]), H.zero_space())

    def test_action_law_is_validated(self):
        S = builtin("sl2")
        bad = [Matrix.identity(QQ, 2), Matrix.zero(QQ, 2, 2), Matrix.zero(QQ, 2, 2)]
        with pytest.raises(AlgebraError):
            LModule(S, bad)


class TestSpin:
    def test_zero_vector(self):
        M = adjoint_module(builtin("r2"))
        assert spin(M, vec(QQ, (0, 0))).is_zero()

    def test_r2_adjoint_from_x(self):
        M = adjoint_module(builtin("r2"))
        assert spin(M, vec(QQ, (1, 0))).is_full()  # [y,x] = -y pulls in y

    def test_sl2_adjoint_from_e(self):
        M = adjoint_module(builtin("sl2"))
        assert spin(M, vec(QQ, (1, 0, 0))).is_full()


class TestSocle:
    def test_ex22_certified(self):
        E = builtin("ex22")
        info = socle_and_minimal_ideals(E, E.zero_space())
        assert info.status.certified
        assert {W.basis for W in info.minimals} == {
            E.span([(1, 0, 0, 0)]).basis,
            E.span([(0, 1, 0, 0), (0, 0, 1, 0)]).basis,
        }
        abc = E.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        assert info.soc == abc
        assert all(brackets_inside(E, W, W, E.zero_space()) for W in info.minimals)

    def test_two_simple_summands(self):
        D = builtin("sl2_plus_sl2")
        info = socle_and_minimal_ideals(D, D.zero_space())
        S1 = D.span([unit_vec(QQ, 6, i) for i in range(3)])
        S2 = D.span([unit_vec(QQ, 6, i) for i in range(3, 6)])
        assert {W.basis for W in info.minimals} == {S1.basis, S2.basis}
        assert info.soc.is_full()
        assert not any(brackets_inside(D, W, W, D.zero_space()) for W in info.minimals)

    def test_heis_monolith(self):
        H = builtin("heis")
        info = socle_and_minimal_ideals(H, H.zero_space())
        assert [W.basis for W in info.minimals] == [H.span([(0, 0, 1)]).basis]
        assert brackets_inside(H, info.minimals[0], info.minimals[0], H.zero_space())

    def test_quotient_socle_lifts(self):
        H = builtin("heis")
        z = H.span([(0, 0, 1)])
        info = socle_and_minimal_ideals(H, z)
        assert info.soc.is_full()  # heis/z is abelian
        for W in info.minimals:
            assert W.contains_space(z) and W.dim == 2

    @pytest.mark.parametrize("name", ["r2", "heis", "ex22", "h3_plus_r2"])
    def test_matches_oracle_over_gf3(self, name):
        from liestruct.oracle import minimal_ideals_bf

        L = builtin(name, GF(3))
        info = socle_and_minimal_ideals(L, L.zero_space())
        bf = minimal_ideals_bf(L)
        soc_bf = L.zero_space()
        for W in bf:
            soc_bf = soc_bf.sum(W)
        assert info.soc == soc_bf
        assert all(W in bf for W in info.minimals)

    def test_every_vector_spins_to_the_minimal_ideal(self):
        # irreducibility in the concrete sense, exhaustively over GF(3)
        E = builtin("ex22", GF(3))
        info = socle_and_minimal_ideals(E, E.zero_space())
        M = adjoint_module(E)
        for W in info.minimals:
            vectors = [
                tuple(sum(c * b[i] for c, b in zip(coeffs, W.basis)) % 3 for i in range(4))
                for coeffs in itertools.product(range(3), repeat=W.dim)
            ]
            for v in vectors:
                if any(v):
                    assert spin(M, vec(GF(3), v)) == W


class TestIrreducibility:
    def test_simple_algebras_certified(self):
        for name in ("sl2", "sl2_plus_sl2"):
            L = builtin(name)
            S1 = L.span([unit_vec(QQ, L.dim, i) for i in range(3)])
            mod = restrict_module(adjoint_module(L), S1)
            verdict, _, status = certify_irreducible(mod)
            assert verdict is True and status.certified

    def test_reducible_with_witness(self):
        H = builtin("heis")
        M = adjoint_module(H)
        verdict, witness, status = certify_irreducible(M)
        assert verdict is False and status.certified
        assert witness is not None and 0 < witness.dim < 3
        assert is_ideal(H, witness)

    def test_rotation_block_certified_by_charpoly(self):
        E = builtin("ex22")
        fm = factor_module(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space())
        verdict, _, status = certify_irreducible(fm.module)
        assert verdict is True and status.certified

    def test_quartic_over_gf10007_is_certified_by_its_charpoly(self):
        """t^4 + t + 6 is irreducible over GF(10007): no rho - lambda is
        singular, 10007^4 vectors are over budget, and Rabin's test of the
        characteristic polynomial certifies the module in well under the
        53 s that the old quartic splitting search took."""
        L = x_acting_by_companion(GF(10007), [6, 1, 0, 0])
        M = factor_module(L, L.span([unit_vec(L.field, 5, i) for i in range(4)]), L.zero_space()).module
        start = time.perf_counter()
        verdict, _, status = certify_irreducible(M)
        assert verdict is True and status.certified
        assert time.perf_counter() - start < 10

    def test_quartic_over_q_gets_a_certified_chief_series(self):
        """t^4 - 2 has no rational root and no integer quadratic factor, so
        Q^4 is a minimal ideal of x acting by its companion matrix."""
        series = chief_series(x_acting_by_companion(QQ, [-2, 0, 0, 0]))
        assert [f.dim for f in series.factors] == [4, 1]
        assert series.status.certified

    def test_report_on_a_quartic_with_a_large_constant_term(self):
        """t^4 + 10^30 + 57 is irreducible over Q, so the report certifies
        Q^4 as a chief factor; a search over the divisors of the constant
        term would trial-divide up to 10^15."""
        L = x_acting_by_companion(QQ, [10**30 + 57, 0, 0, 0])
        start = time.perf_counter()
        series = build_report(L, None)["chief_series"]
        assert time.perf_counter() - start < 2
        assert [f["dim"] for f in series["factors"]] == [4, 1]
        assert series["status"] == "certified"


class TestHomSpace:
    def test_trivial_lines(self):
        A = builtin("ab(2)")
        M = factor_module(A, A.span([(1, 0)]), A.zero_space()).module
        N = factor_module(A, A.span([(0, 1)]), A.zero_space()).module
        assert len(hom_space(M, N)) == 1

    def test_ex22_cross_hom_vanishes(self):
        E = builtin("ex22")
        line = factor_module(E, E.span([(1, 0, 0, 0)]), E.zero_space()).module
        plane = factor_module(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space()).module
        assert hom_space(line, plane) == []
        assert hom_space(plane, line) == []

    def test_rotation_block_has_quadratic_endomorphisms(self):
        E = builtin("ex22")
        plane = factor_module(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space()).module
        assert len(hom_space(plane, plane)) == 2  # 1 and the rotation generate


class TestModuleIsomorphism:
    def test_self(self):
        E = builtin("ex22")
        M = factor_module(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space()).module
        iso, status = module_isomorphism(M, M)
        assert iso is not None and iso.is_isomorphism() and status.certified

    def test_dimension_mismatch_is_definitive(self):
        E = builtin("ex22")
        line = factor_module(E, E.span([(1, 0, 0, 0)]), E.zero_space()).module
        plane = factor_module(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space()).module
        iso, status = module_isomorphism(line, plane)
        assert iso is None and status.certified

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
    def test_heis_trivial_factors_isomorphic(self, field):
        H = builtin("heis", field)
        z = H.span([(0, 0, 1)])
        zy = H.span([(0, 0, 1), (0, 1, 0)])
        M1 = factor_module(H, zy, z).module
        M2 = factor_module(H, H.full_space(), zy).module
        iso, status = module_isomorphism(M1, M2)
        assert iso is not None and status.certified

    def test_nontrivial_vs_trivial_line(self):
        R = builtin("r2")
        triv = factor_module(R, R.full_space(), R.span([(0, 1)])).module
        nontriv = factor_module(R, R.span([(0, 1)]), R.zero_space()).module
        iso, status = module_isomorphism(triv, nontriv)
        assert iso is None and status.certified

    def test_composition_with_inverse_is_identity(self):
        from liestruct.linalg import invert_matrix

        H = builtin("heis")
        z = H.span([(0, 0, 1)])
        zy = H.span([(0, 0, 1), (0, 1, 0)])
        M1 = factor_module(H, zy, z).module
        M2 = factor_module(H, H.full_space(), zy).module
        iso, _ = module_isomorphism(M1, M2)
        inv = invert_matrix(iso.matrix)
        assert inv.matmul(iso.matrix) == Matrix.identity(QQ, 1)

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
    def test_reducible_module_is_reported_not_searched(self, field):
        # the trivial plane of ab(3) is reducible: End is all 2x2 matrices,
        # its basis the four singular matrix units, so the Schur precondition
        # is broken and the answer is heuristic, not an exception
        L = builtin("ab(3)", field)
        M = LModule(L, [Matrix.zero(field, 2, 2)] * 3)
        homs = hom_space(M, M)
        assert len(homs) == 4
        for h in homs:
            assert sorted(x for row in h.matrix.entries for x in row) == [0, 0, 0, 1]
            assert not h.is_isomorphism()
        iso, status = module_isomorphism(M, M)
        assert iso is None and status.level == "heuristic"


CORPORA = (
    [(name, QQ) for name in CORPUS_Q]
    + [(name, GF(3)) for name in CORPUS_Q]
    + [(name, GF(2)) for name in CORPUS_GF2]
    + [(name, GF(5)) for name in CORPUS_Q if name != "ex22"]  # t^2+1 splits mod 5
)


@pytest.mark.parametrize("name, field", CORPORA, ids=[f"{n}-{F}" for n, F in CORPORA])
def test_schur_holds_on_chief_factor_modules(name, field):
    # the fact module_isomorphism rests on: chief-factor modules are
    # irreducible, so every nonzero map between two of equal dimension is
    # invertible and every isomorphism verdict is certified
    S = chief_series(builtin(name, field))
    for f1 in S.factors:
        for f2 in S.factors:
            if f1.dim != f2.dim:
                continue
            for h in hom_space(f1.module(), f2.module()):
                assert h.is_isomorphism(), (name, field)
            assert module_isomorphic(f1, f2)[2].certified, (name, field)


VALIDATED = CORPORA[: len(CORPUS_Q) * 2 + len(CORPUS_GF2)]  # Q, GF(3) and GF(2)


@pytest.mark.parametrize("name, field", VALIDATED, ids=[f"{n}-{F}" for n, F in VALIDATED])
def test_chief_factor_modules_obey_the_bracket_law(name, field):
    # factor_module skips this check, since a section of ideals inherits the
    # bracket law from the adjoint action; here it is made on every factor
    for f in chief_series(builtin(name, field)).factors:
        f.module()._validate()


class TestSplitting:
    def test_heis_monolith_does_not_split(self):
        H = builtin("heis")
        assert split_abelian_extension(H, H.span([(0, 0, 1)]), H.zero_space()) is None

    def test_r2_splits_with_line_complement(self):
        R = builtin("r2")
        cert = split_abelian_extension(R, R.span([(0, 1)]), R.zero_space())
        assert cert is not None
        K = cert.complement
        assert K.dim == 1 and is_subalgebra(R, K)
        assert K.sum(R.span([(0, 1)])).is_full()

    def test_heis_middle_layer(self):
        H = builtin("heis")
        zy = H.span([(0, 0, 1), (0, 1, 0)])
        z = H.span([(0, 0, 1)])
        cert = split_abelian_extension(H, zy, z)
        assert cert is not None
        assert cert.complement == H.span([(1, 0, 0), (0, 0, 1)])

    def test_nonabelian_section_rejected(self):
        S = builtin("sl2")
        with pytest.raises(AlgebraError):
            split_abelian_extension(S, S.full_space(), S.zero_space())

    @pytest.mark.parametrize("name,p", [("heis", 2), ("heis", 3), ("r2", 3),
                                        ("ex22", 3), ("h3_plus_r2", 2)])
    def test_split_agrees_with_complement_enumeration(self, name, p):
        # oracle: a complement exists iff some subalgebra K has K + A = L
        # and K cap A = B
        from liestruct.chief import chief_series
        from liestruct.oracle import complements_bf

        L = builtin(name, GF(p))
        series = chief_series(L)
        for f in series.factors:
            if not f.abelian:
                continue
            cert = split_abelian_extension(L, f.A, f.B)
            bf = complements_bf(L, f.A, f.B)
            assert (cert is not None) == bool(bf)


class TestFactorModuleKernelInvariant:
    def test_kernel_equals_centralizer_on_all_corpus_factors(self, corpus_q):
        from liestruct.algebra import factor_centralizer
        from liestruct.chief import chief_series

        for L in corpus_q.values():
            for f in chief_series(L).factors:
                fm = factor_module(L, f.A, f.B)
                assert fm.module.kernel_of_action() == factor_centralizer(L, f.A, f.B)
                assert f.centralizer == fm.module.kernel_of_action()
