import ast
import inspect

import pytest
from hypothesis import given, settings

from liestruct import builtin
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    brackets_inside,
    direct_sum,
    is_ideal,
    is_solvable,
    is_subalgebra,
    semidirect_sum,
    subspace_is_solvable,
)
from liestruct import chief
from liestruct.chief import (
    ChiefMatch,
    IsoClass,
    _partition,
    chief_series,
    chief_series_variants,
    classify_factor,
    connected,
    iso_classes,
    jordan_holder_match,
    module_isomorphic,
    radical_centralizer_formula,
    solvable_radical,
)
from liestruct.crowns import all_crowns
from liestruct.fields import GF, QQ
from liestruct.linalg import unit_vec
from liestruct.modules import module_isomorphism, socle_and_minimal_ideals
from liestruct.oracle import oracle_check
from liestruct.primitive import associated_primitive_algebra, classify_primitive
from liestruct.status import CERTIFIED, CertificationFailure, undecided, worst

from conftest import CORPUS_Q
from test_bracket_constructions import semidirect_sums_in_a_random_basis
from test_larger_primes import matrix_units
from test_socle import natural_module
from test_socle_char0 import rebased_corpus_algebras
from test_socle_sections import FIELD_CORPUS, sl2_cubed


def series_dims(S):
    return [c.dim for c in S.chain]


class TestChiefSeries:
    def test_the_zero_algebra_has_the_chain_of_its_zero_ideal(self):
        Z = LieAlgebra(GF(3), 0, {})
        S = chief_series(Z)
        assert S.chain == (Z.zero_space(),) and S.factors == ()
        assert S.status.certified

    def test_r2(self):
        R = builtin("r2")
        S = chief_series(R)
        assert series_dims(S) == [0, 1, 2]
        assert S.chain[1] == R.span([(0, 1)])
        assert all(f.complemented and not f.frattini for f in S.factors)

    def test_heis(self):
        H = builtin("heis")
        S = chief_series(H)
        assert series_dims(S) == [0, 1, 2, 3]
        assert S.chain[1] == H.span([(0, 0, 1)])
        assert S.factors[0].frattini and not S.factors[0].supplemented
        assert S.factors[1].complemented and S.factors[2].complemented

    def test_sl2_single_nonabelian_factor(self):
        S = chief_series(builtin("sl2"))
        assert series_dims(S) == [0, 3]
        assert not S.factors[0].abelian and S.factors[0].supplemented

    def test_every_chain_member_is_an_ideal(self, corpus_q):
        for L in corpus_q.values():
            S = chief_series(L)
            for C in S.chain:
                assert is_ideal(L, C)
            assert S.status.certified

    def test_factors_are_chief(self, corpus_q):
        # no ideal strictly between: each factor is a minimal ideal of L/B
        from liestruct.modules import certify_irreducible, factor_module

        for L in corpus_q.values():
            for f in chief_series(L).factors:
                verdict, _, status = certify_irreducible(
                    factor_module(L, f.A, f.B).module
                )
                assert verdict is True and status.certified

    def test_variants_heis(self):
        variants = chief_series_variants(builtin("heis"))
        assert len(variants) == 2
        middles = {v.chain[2].basis for v in variants}
        H = builtin("heis")
        assert middles == {
            H.span([(1, 0, 0), (0, 0, 1)]).basis,
            H.span([(0, 1, 0), (0, 0, 1)]).basis,
        }


class TestClassification:
    def test_heis_frattini_flag_matches_oracle(self):
        from liestruct.oracle import factor_is_frattini_bf

        H3 = builtin("heis", GF(3))
        S = chief_series(H3)
        for f in S.factors:
            assert f.frattini == factor_is_frattini_bf(H3, f.A, f.B)

    def test_ex22_plane_complemented(self):
        E = builtin("ex22")
        bc = E.span([(0, 1, 0, 0), (0, 0, 1, 0)])
        f = classify_factor(E, bc, E.zero_space())
        assert f.abelian and f.complemented and not f.frattini
        K = f.complement_witness
        assert is_subalgebra(E, K)
        assert K.intersect(bc).is_zero() and K.sum(bc).is_full()
        assert f.centralizer == E.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])

    def test_sl2_plus_sl2_summand_complemented_by_centralizer(self):
        D = builtin("sl2_plus_sl2")
        S1 = D.span([unit_vec(QQ, 6, i) for i in range(3)])
        f = classify_factor(D, S1, D.zero_space())
        assert not f.abelian and f.supplemented and f.complemented
        assert f.complement_witness == f.centralizer

    def test_nonabelian_never_frattini(self, corpus_q):
        for L in corpus_q.values():
            for f in chief_series(L).factors:
                if not f.abelian:
                    assert not f.frattini and f.supplemented


class TestModuleIsomorphic:
    def test_published_abelian_counterexample(self):
        # equal centralizers do not force isomorphism for abelian factors
        E = builtin("ex22")
        f1 = classify_factor(E, E.span([(1, 0, 0, 0)]), E.zero_space())
        f2 = classify_factor(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space())
        assert f1.centralizer == f2.centralizer
        ok, _, status = module_isomorphic(f1, f2)
        assert not ok and status.certified

    def test_sl2_plus_sl2_factors_not_isomorphic(self):
        D = builtin("sl2_plus_sl2")
        S = chief_series(D)
        ok, _, _ = module_isomorphic(S.factors[0], S.factors[1])
        assert not ok
        assert S.factors[0].centralizer != S.factors[1].centralizer

    def test_heis_trivial_factors(self):
        H = builtin("heis")
        S = chief_series(H)
        ok, witness, status = module_isomorphic(S.factors[1], S.factors[2])
        assert ok and witness is not None and status.certified

    def test_nonabelian_witness_is_equivariant_bijection(self):
        G = builtin("gl2")
        S = chief_series(G)
        nonab = [f for f in S.factors if not f.abelian]
        f1 = nonab[0]
        f2 = classify_factor(G, G.full_space(), G.span([(0, 0, 0, 1)]))
        ok, witness, _ = module_isomorphic(f1, f2)
        assert ok and witness.is_isomorphism()

    @pytest.mark.parametrize("p", [0, 3, 5], ids=["q", "gf3", "gf5"])
    def test_mixed_pairs_are_not_isomorphic_by_rule(self, p):
        """sl2 acting on its adjoint module V: V/0 and L/V are isomorphic
        L-modules, but an abelian and a nonabelian factor are never called
        isomorphic, so each gets its own crown, V/0 and L/V."""
        F = GF(p) if p else QQ
        sl2 = builtin("sl2", F)
        L = semidirect_sum(LieAlgebra(F, 3, {}), sl2, [sl2.ad(unit_vec(F, 3, i)) for i in range(3)])
        V = L.span([unit_vec(F, 6, i) for i in range(3)])
        f1 = classify_factor(L, V, L.zero_space())
        f2 = classify_factor(L, L.full_space(), V)
        assert (f1.abelian, f2.abelian) == (True, False)
        for pair in ((f1, f2), (f2, f1)):
            ok, witness, status = module_isomorphic(*pair)
            assert (ok, witness) == (False, None) and status.certified
        iso, status = module_isomorphism(f1.module(), f2.module())
        assert iso is not None and iso.is_isomorphism()
        crowns = all_crowns(L)
        assert sorted((c.C.dim, c.R.dim) for c in crowns) == [(3, 0), (6, 3)]
        if p == 3:
            assert oracle_check(L) == []

    def test_centralizer_criterion_against_module_route(self, corpus_q):
        # dual route: for nonabelian pairs the hom-space search must agree
        # with the centralizer-equality shortcut
        for L in corpus_q.values():
            S = chief_series(L)
            nonab = [f for f in S.factors if not f.abelian]
            for f1 in nonab:
                for f2 in nonab:
                    ok, _, _ = module_isomorphic(f1, f2)
                    iso, status = module_isomorphism(f1.module(), f2.module())
                    assert status.certified
                    assert ok == (iso is not None)


class TestConnected:
    def test_reflexive(self, corpus_q):
        for L in corpus_q.values():
            for f in chief_series(L).factors:
                ok, witness, status = connected(f, f)
                assert ok and status.certified

    def test_symmetric_on_corpus(self, corpus_q):
        for L in corpus_q.values():
            S = chief_series(L)
            for f1 in S.factors:
                for f2 in S.factors:
                    assert connected(f1, f2)[0] == connected(f2, f1)[0]

    def test_sl2_plus_sl2_connected_not_isomorphic(self):
        D = builtin("sl2_plus_sl2")
        S = chief_series(D)
        ok, witness, status = connected(S.factors[0], S.factors[1])
        assert ok and status.certified
        assert witness.kind == "type3" and witness.kernel.is_zero()
        assert not module_isomorphic(S.factors[0], S.factors[1])[0]

    def test_two_simple_ideals_of_unknown_isomorphism_are_undecided(self):
        """sl2 + so3 over Q: the isomorphism search over {-1, 0, 1}
        coordinates misses, so the type-3 quotient is undecided, and the
        caller sees the reason of the section's own verdict."""
        so3 = LieAlgebra(QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)})
        L = direct_sum(builtin("sl2"), so3)
        f1, f2 = chief_series(L).factors
        ok, witness, status = connected(f1, f2)
        assert (ok, witness, status.level) == (False, None, "undecided")
        assert status == classify_primitive(L, N=L.zero_space()).status

    @pytest.mark.parametrize("p", [0, 5], ids=["q", "gf5"])
    def test_simple_ideals_of_different_dimensions_are_not_connected(self, p):
        """sl2 + sl3: the two simple ideals centralize each other and span
        the algebra, but have dimensions 3 and 8."""
        F = GF(p) if p else QQ
        units = [[int(k == 3 * i + j) for k in range(9)] for i, j in ((0, 1), (1, 0), (1, 2), (2, 1))]
        L = direct_sum(builtin("sl2", F), natural_module(p, 3, units).algebra)
        f1, f2 = chief_series(L).factors
        assert (f1.dim, f2.dim) == (3, 8)
        for pair in ((f1, f2), (f2, f1)):
            ok, witness, status = connected(*pair)
            assert (ok, witness) == (False, None) and status.certified

    def test_ex22_minimal_ideals_not_connected(self):
        E = builtin("ex22")
        f1 = classify_factor(E, E.span([(1, 0, 0, 0)]), E.zero_space())
        f2 = classify_factor(E, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]), E.zero_space())
        ok, _, status = connected(f1, f2)
        assert not ok and status.certified

    def test_transitive_on_corpus(self, corpus_q):
        for L in corpus_q.values():
            factors = chief_series(L).factors
            rel = {
                (i, j): connected(factors[i], factors[j])[0]
                for i in range(len(factors))
                for j in range(len(factors))
            }
            for i in range(len(factors)):
                for j in range(len(factors)):
                    for k in range(len(factors)):
                        if rel[(i, j)] and rel[(j, k)]:
                            assert rel[(i, k)]


class TestJordanHolder:
    def test_identity_bijection(self):
        H = builtin("heis")
        S = chief_series(H)
        match = jordan_holder_match(S, S)
        assert [(i, j) for i, j, _ in match.pairs] == [(0, 0), (1, 1), (2, 2)]

    def test_heis_two_series(self):
        variants = chief_series_variants(builtin("heis"))
        assert len(variants) == 2
        match = jordan_holder_match(variants[0], variants[1])
        for i, j, witness in match.pairs:
            assert variants[0].factors[i].frattini == variants[1].factors[j].frattini
            assert witness is not None
        # the Frattini factor pairs with itself (position 0 in both)
        assert (0, 0) in [(i, j) for i, j, _ in match.pairs]

    def test_h3_plus_r2_frattini_pairing(self):
        variants = chief_series_variants(builtin("h3_plus_r2"), limit=4)
        assert len(variants) >= 2
        base = variants[0]
        for other in variants[1:]:
            match = jordan_holder_match(base, other)
            for i, j, witness in match.pairs:
                assert base.factors[i].frattini == other.factors[j].frattini
                ok, _, _ = module_isomorphic(base.factors[i], other.factors[j])
                assert ok

    def test_multiset_invariants_across_series(self, corpus_q):
        for L in corpus_q.values():
            variants = chief_series_variants(L, limit=4)
            signatures = []
            for S in variants:
                signatures.append(
                    sorted((f.dim, f.abelian, f.frattini) for f in S.factors)
                )
            assert all(sig == signatures[0] for sig in signatures)


class TestSolvableRadical:
    def test_solvable_algebras(self, corpus_q):
        from liestruct.algebra import is_solvable

        for name, L in corpus_q.items():
            rad, status = solvable_radical(L)
            assert status.certified
            if is_solvable(L):
                assert rad.is_full()

    def test_sl2(self):
        rad, _ = solvable_radical(builtin("sl2"))
        assert rad.is_zero()

    def test_gl2_center(self):
        G = builtin("gl2")
        rad, _ = solvable_radical(G)
        assert rad == G.span([(0, 0, 0, 1)])
        S = chief_series(G)
        assert radical_centralizer_formula(G, S) == rad

    def test_centralizer_formula_on_nonsolvable_corpus(self, corpus_q):
        for L in corpus_q.values():
            S = chief_series(L)
            formula = radical_centralizer_formula(L, S)
            if formula is not None:
                assert formula == solvable_radical(L)[0]

    def test_a_solvable_algebra_is_its_radical_whatever_its_series(self):
        """x acting on Q^5 by the companion matrix of t^5 - 2: the chief
        series is heuristic, the radical L is certified by the derived
        series (the socle loop reported the socles' heuristic status)."""
        from test_modules import x_acting_by_companion

        L = x_acting_by_companion(QQ, [-2, 0, 0, 0, 0])
        assert not chief_series(L).status.certified
        assert not old_solvable_radical(L)[1].certified
        assert solvable_radical(L) == (L.full_space(), CERTIFIED)

    def test_the_radical_reads_no_socle_and_no_killing_form(self):
        """One route on every field: the body of ``solvable_radical`` climbs
        no socles and forks on no Killing radical."""
        tree = ast.parse(inspect.getsource(solvable_radical))
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert "chief_series" in called
        assert not called & {"socle_and_minimal_ideals", "killing_radical"}


def old_solvable_radical(L):
    """The radical by absorbing abelian socles upward, as
    ``chief.solvable_radical`` once computed it: the abelian part of each
    socle is the span of the abelian minimal ideals over R."""
    R = L.zero_space()
    status = CERTIFIED
    while True:
        info = socle_and_minimal_ideals(L, R)
        status = worst(status, info.status)
        abelian = [x for X in info.minimals if brackets_inside(L, X, X, R) for x in X.basis]
        asoc = L.span(list(R.basis) + abelian)
        if asoc == R:
            break
        R = asoc
    if not subspace_is_solvable(L, R):
        raise CertificationFailure("radical candidate is not solvable")
    return R, status


def assert_radical_matches(L):
    """The radical and its status against the socle loop, run on a
    value-equal copy of L so that no memo is shared; a solvable L may be
    certified where the loop met a heuristic socle."""
    rad, status = solvable_radical(L)
    old_rad, old_status = old_solvable_radical(LieAlgebra(L.field, L.dim, L.table, validate=False))
    assert rad == old_rad
    assert status == old_status or (is_solvable(L) and status == CERTIFIED)
    return old_rad


@pytest.mark.parametrize(
    "name,field", FIELD_CORPUS, ids=[f"{n}-{F!r}" for n, F in FIELD_CORPUS]
)
def test_radical_matches_the_socle_loop_on_the_corpus(name, field):
    """On a nonsolvable algebra every chief series gives the radical."""
    L = builtin(name, field)
    old_rad = assert_radical_matches(L)
    if not is_solvable(L):
        for S in chief_series_variants(L):
            assert radical_centralizer_formula(L, S) == old_rad


@pytest.mark.parametrize(
    "build", [lambda: matrix_units(5, 3, False), lambda: sl2_cubed(GF(5))], ids=["gl3", "sl2^3"]
)
def test_radical_matches_the_socle_loop_over_budget(build):
    assert_radical_matches(build())


@given(rebased_corpus_algebras())
@settings(max_examples=10, deadline=None)
def test_radical_matches_the_socle_loop_in_a_random_basis(L):
    assert_radical_matches(L)


@given(semidirect_sums_in_a_random_basis())
@settings(max_examples=20, deadline=None)
def test_radical_matches_the_socle_loop_on_semidirect_sums(sum_and_ideal):
    """Draws of every dimension, over Q too, as in
    ``test_socles_match_on_semidirect_sums_in_a_random_basis``."""
    assert_radical_matches(sum_and_ideal[0])


class TestAssociatedPrimitive:
    def test_r2_factor_rebuilds_r2(self):
        R = builtin("r2")
        f = chief_series(R).factors[0]  # <y>/0
        ap = associated_primitive_algebra(f)
        assert ap.algebra.dim == 2 and ap.witness.verdict == "type1"

    def test_sl2_quotient_by_zero(self):
        S = builtin("sl2")
        f = chief_series(S).factors[0]
        ap = associated_primitive_algebra(f)
        assert ap.algebra.dim == 3 and ap.witness.verdict == "type2"

    def test_heis_middle_factor_inflates_to_a_line(self):
        H = builtin("heis")
        f = chief_series(H).factors[1]
        ap = associated_primitive_algebra(f)
        assert ap.algebra.dim == 1 and ap.witness.verdict == "type1"

    def test_frattini_factor_rejected(self):
        H = builtin("heis")
        f = chief_series(H).factors[0]
        with pytest.raises(AlgebraError):
            associated_primitive_algebra(f)


class TestIsoClasses:
    def test_heis_single_trivial_class(self):
        # all three factors are one-dimensional trivial modules, so they
        # form one class; only the Frattini flag tells them apart
        from liestruct.chief import iso_classes

        S = chief_series(builtin("heis"))
        classes = iso_classes(S)
        assert [len(c.member_indices) for c in classes] == [3]
        flags = [S.factors[i].frattini for i in classes[0].member_indices]
        assert flags.count(True) == 1

    def test_ex22_three_classes(self):
        from liestruct.chief import iso_classes

        S = chief_series(builtin("ex22"))
        assert [len(c.member_indices) for c in iso_classes(S)] == [1, 1, 1]

    def test_members_pairwise_isomorphic(self, corpus_q):
        from liestruct.chief import iso_classes

        for L in corpus_q.values():
            S = chief_series(L)
            for cls in iso_classes(S):
                for i in cls.member_indices:
                    ok, _, _ = module_isomorphic(cls.representative, S.factors[i])
                    assert ok


def old_iso_labels(factors):
    """The greedy labelling that split factors into module-isomorphism
    classes before ``_partition``: ``(reps, labels, status)``, each factor
    labelled by the first earlier representative it is isomorphic to."""
    reps, labels, status = [], [], CERTIFIED
    for f in factors:
        for ridx, rep in enumerate(reps):
            ok, _, st = module_isomorphic(rep, f)
            status = worst(status, st)
            if ok:
                labels.append(ridx)
                break
        else:
            reps.append(f)
            labels.append(len(reps) - 1)
    return reps, labels, status


def old_iso_classes(series):
    reps, labels, _ = old_iso_labels(series.factors)
    return [
        IsoClass(rep, tuple(i for i, l in enumerate(labels) if l == ridx))
        for ridx, rep in enumerate(reps)
    ]


def old_jordan_holder_match(S1, S2):
    reps, labels, status = old_iso_labels(S1.factors + S2.factors)
    status = worst(S1.status, S2.status, status)
    labels1, labels2 = labels[: len(S1)], labels[len(S1) :]
    pairs = []
    for ridx in range(len(reps)):
        side1 = [i for i, l in enumerate(labels1) if l == ridx]
        side2 = [j for j, l in enumerate(labels2) if l == ridx]
        assert len(side1) == len(side2)
        f1_frat = [i for i in side1 if S1.factors[i].frattini]
        f1_rest = [i for i in side1 if not S1.factors[i].frattini]
        f2_frat = [j for j in side2 if S2.factors[j].frattini]
        f2_rest = [j for j in side2 if not S2.factors[j].frattini]
        for i, j in list(zip(f1_frat, f2_frat)) + list(zip(f1_rest, f2_rest)):
            ok, wit, st = module_isomorphic(S1.factors[i], S2.factors[j])
            status = worst(status, st)
            pairs.append((i, j, wit))
    pairs.sort()
    return ChiefMatch(tuple(pairs), status)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "gf3"])
@pytest.mark.parametrize("name", CORPUS_Q)
def test_the_partition_matches_the_greedy_labels(name, field):
    """``iso_classes`` and ``jordan_holder_match`` give the classes and
    pairs of the greedy labelling on every series variant."""
    variants = chief_series_variants(builtin(name, field))
    for S in variants:
        assert iso_classes(S) == old_iso_classes(S)
        for T in variants:
            assert jordan_holder_match(S, T) == old_jordan_holder_match(S, T)


class TestPartition:
    UNSHOWN = undecided("a bounded search failed")

    @staticmethod
    def residues(undecided_pairs, asked):
        """Congruence mod 3, answered undecided on the pairs named."""

        def related(a, b):
            asked.append((a, b))
            if frozenset((a, b)) in undecided_pairs:
                return False, None, TestPartition.UNSHOWN
            return a % 3 == b % 3, None, CERTIFIED

        return related

    def test_residues_mod_three_with_one_undecided_pair(self):
        asked = []
        classes = _partition([0, 1, 2, 3], self.residues({frozenset((1, 2))}, asked))
        assert classes == (((0, 3), CERTIFIED), ((1,), self.UNSHOWN), ((2,), self.UNSHOWN))
        assert asked == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]

    def test_a_certified_parting_outweighs_an_undecided_test_between(self):
        classes = _partition([0, 1, 2, 3, 4], self.residues({frozenset((1, 2))}, []))
        assert classes == (((0, 3), CERTIFIED), ((1, 4), CERTIFIED), ((2,), CERTIFIED))


def test_schur_refusing_a_nonabelian_factor_itself_raises(monkeypatch):
    """Nonabelian factors with one centralizer are isomorphic, so a
    certified "no" from the Schur route is a fault, not a verdict."""
    monkeypatch.setattr(chief, "module_isomorphism", lambda M1, M2: (None, CERTIFIED))
    [f] = chief_series(builtin("sl2")).factors
    assert not f.abelian
    with pytest.raises(CertificationFailure, match="one centralizer"):
        module_isomorphic(f, f)
