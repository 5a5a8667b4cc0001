import json
import random
from fractions import Fraction

import pytest

from liestruct import builtin, cli, crowns
from liestruct.algebra import (
    AlgebraError,
    LieAlgebra,
    direct_sum,
    is_subalgebra,
    nilpotent_automorphism,
    unipotent_conjugator,
)
from liestruct.chief import chief_series, classify_factor, connected
from liestruct.crowns import (
    AVOIDS,
    COVERS,
    all_crowns,
    complement_conjugator,
    cover_avoid_profile,
    crown_complement,
    crown_of_factor,
    precrowns_of_factor,
    prefrattini,
)
from liestruct.corpus import save
from liestruct.fields import GF, QQ
from liestruct.linalg import (
    Matrix,
    Subspace,
    invert_matrix,
    lin_comb,
    rref_solve,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from liestruct.oracle import complements_bf
from liestruct.status import CERTIFIED, CertificationFailure, undecided
from conftest import residue
from test_isomorphism import rebased, transport
from test_sparse_brackets import old_colon_rows


def old_unipotent_conjugator(L: LieAlgebra, C: Subspace, K1: Subspace, K2: Subspace):
    """``algebra.unipotent_conjugator`` as it read L/K2 by elimination: the
    rows of ``old_colon_rows`` against the residues of -k (test-local
    ``residue``) at K2's non-pivot columns, then the same candidates."""
    F = L.field
    if K1 == K2:
        return zero_vec(F, L.dim)
    rows = old_colon_rows(L, C, K1, K2)
    pivots = set(K2.pivots)
    rhs = [-x for k in K1.basis for t, x in enumerate(residue(K2, k)) if t not in pivots]
    _, _, particular, null = rref_solve(Matrix._of(F, rows, C.dim), rhs)
    if particular is None:
        raise CertificationFailure("no conjugating element; solvable hypothesis violated?")
    candidates = [particular]
    for nv in null.basis:
        for scale in (1, -1, 2, -2):
            candidates.append(vec_add(F, particular, vec_scale(F, scale, nv)))
    for coeffs in candidates:
        a = lin_comb(F, coeffs, C.basis)
        ada = L.ad(a)
        if not ada.matmul(ada).is_zero():
            continue
        image = Subspace.from_vectors(F, L.dim, [vec_add(F, k, ada.apply(k)) for k in K1.basis])
        if image == K2:
            return a
    raise CertificationFailure("no square-nilpotent conjugator found in the solution family")


def translated_complements(L: LieAlgebra, crown) -> list:
    """The canonical complement of a crown and its images under 1 + ad a
    for the square-zero a among c and c/2 + c' over basis vectors c, c' of
    the numerator: complements over Q, where they cannot be enumerated."""
    F = L.field
    K = crown_complement(L, crown)
    cs = crown.C.basis
    elements = list(cs) + [
        vec_add(F, vec_scale(F, Fraction(1, 2), c), d) for c in cs for d in cs if c != d
    ]
    out = [K]
    for a in elements:
        ada = L.ad(a)
        if ada.matmul(ada).is_zero():
            image = nilpotent_automorphism(L, a).apply_space(K)
            if image not in out:
                out.append(image)
    return out


def crown_table(L, series=None):
    return {(c.C.basis, c.R.basis, c.rank) for c in all_crowns(L, series)}


class TestPrecrowns:
    def test_heis_family_over_q(self):
        H = builtin("heis")
        S = chief_series(H)
        fam = precrowns_of_factor(S.factors[1])
        assert len(fam.precrowns) == 1 and not fam.exhaustive
        assert fam.precrowns[0].numerator.is_full()
        assert fam.denominator_intersection == H.span([(0, 0, 1)])

    def test_heis_family_over_gf3_is_exhaustive(self):
        H = builtin("heis", GF(3))
        S = chief_series(H)
        fam = precrowns_of_factor(S.factors[1])
        assert fam.exhaustive and len(fam.precrowns) == 3
        denominators = [p.denominator for p in fam.precrowns]
        assert len(set(denominators)) == len(denominators)
        inter = fam.precrowns[0].denominator
        for p in fam.precrowns[1:]:
            inter = inter.intersect(p.denominator)
        assert inter == fam.denominator_intersection == H.span([(0, 0, 1)])

    @pytest.mark.parametrize(
        "name,p", [("h3_plus_r2", 2), ("ab(2)", 3), ("r2", 3), ("ex22", 3), ("gl2", 3), ("h3_plus_r2", 5)]
    )
    def test_finite_families_list_each_denominator_once(self, name, p):
        """The graphs of distinct maps over N0/B meet A only in B, so a
        finite family needs no deduplication: its denominators differ."""
        L = builtin(name, GF(p))
        for f in chief_series(L).factors:
            if f.supplemented and f.abelian:
                denominators = [pc.denominator for pc in precrowns_of_factor(f).precrowns]
                assert len(set(denominators)) == len(denominators)

    def test_ex22_line_has_unique_denominator(self):
        E = builtin("ex22")
        f = classify_factor(E, E.span([(1, 0, 0, 0)]), E.zero_space())
        fam = precrowns_of_factor(f)
        bc = E.span([(0, 1, 0, 0), (0, 0, 1, 0)])
        assert fam.denominator_intersection == bc
        assert fam.precrowns[0].denominator == bc

    def test_sl2_plus_sl2_unique_nonabelian_precrown(self):
        D = builtin("sl2_plus_sl2")
        S = chief_series(D)
        fam = precrowns_of_factor(S.factors[0])
        S2 = D.span([unit_vec(QQ, 6, i) for i in range(3, 6)])
        assert fam.exhaustive and len(fam.precrowns) == 1
        assert fam.precrowns[0].numerator.is_full()
        assert fam.precrowns[0].denominator == S2

    def test_frattini_factor_rejected(self):
        H = builtin("heis")
        with pytest.raises(AlgebraError):
            precrowns_of_factor(chief_series(H).factors[0])


class TestCrownValues:
    def test_heis(self):
        H = builtin("heis")
        S = chief_series(H)
        crown = crown_of_factor(S.factors[1], S)
        assert crown.C.is_full()
        assert crown.R == H.span([(0, 0, 1)])
        assert crown.rank == 2

    def test_ex22_three_crowns(self):
        E = builtin("ex22")
        abc = E.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        expected = {
            (abc.basis, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]).basis, 1),
            (abc.basis, E.span([(1, 0, 0, 0)]).basis, 1),
            (E.full_space().basis, abc.basis, 1),
        }
        assert crown_table(E) == expected

    def test_r2_two_crowns(self):
        R = builtin("r2")
        expected = {
            (R.span([(0, 1)]).basis, R.zero_space().basis, 1),
            (R.full_space().basis, R.span([(0, 1)]).basis, 1),
        }
        assert crown_table(R) == expected

    def test_sl2_plus_sl2(self):
        D = builtin("sl2_plus_sl2")
        assert crown_table(D) == {(D.full_space().basis, D.zero_space().basis, 2)}

    def test_crown_independent_of_series(self):
        from liestruct.chief import chief_series_variants

        H = builtin("h3_plus_r2")
        tables = {frozenset(crown_table(H, S)) for S in chief_series_variants(H, limit=4)}
        assert len(tables) == 1

    def test_a_factor_of_another_series_reads_its_crown_in_this_one(self, corpus_q, corpus_gf3):
        """``crown_of_factor(F, S)`` for F taken from another chief series
        finds F's class among the factors of S connected to it: the crown
        is certified and is one of S's crowns."""
        from liestruct.chief import chief_series_variants

        outside = 0
        for L in [*corpus_q.values(), *corpus_gf3.values()]:
            S = chief_series(L)
            table = crown_table(L, S)
            for V in chief_series_variants(L):
                for f in V.factors:
                    if f.supplemented:
                        outside += f not in S.factors
                        c = crown_of_factor(f, S)
                        assert c.status.certified
                        assert (c.C.basis, c.R.basis, c.rank) in table
        assert outside > 0

    def test_same_crown_iff_connected(self, corpus_q):
        for L in corpus_q.values():
            S = chief_series(L)
            supplemented = [f for f in S.factors if f.supplemented]
            crowns = {id(f): crown_of_factor(f, S) for f in supplemented}
            for f1 in supplemented:
                for f2 in supplemented:
                    same = crowns[id(f1)].key == crowns[id(f2)].key
                    assert same == connected(f1, f2)[0]


class TestCrownComplements:
    def test_r2_line_crown(self):
        R = builtin("r2")
        S = chief_series(R)
        crown = crown_of_factor(S.factors[0], S)
        K = crown_complement(R, crown)
        assert K.dim == 1 and is_subalgebra(R, K)
        assert K.intersect(crown.C).is_zero()

    def test_full_numerator_forces_denominator(self):
        R = builtin("r2")
        S = chief_series(R)
        crown = crown_of_factor(S.factors[1], S)  # C = L
        assert crown_complement(R, crown) == crown.R

    def test_heis(self):
        H = builtin("heis")
        S = chief_series(H)
        crown = crown_of_factor(S.factors[1], S)
        assert crown_complement(H, crown) == H.span([(0, 0, 1)])

    def test_nonsolvable_rejected(self):
        D = builtin("sl2_plus_sl2")
        S = chief_series(D)
        crown = crown_of_factor(S.factors[0], S)
        with pytest.raises(AlgebraError):
            crown_complement(D, crown)


class TestConjugator:
    def test_r2_known_element(self):
        R = builtin("r2")
        S = chief_series(R)
        crown = crown_of_factor(S.factors[0], S)
        K1 = R.span([(1, 0)])
        K2 = R.span([(1, -1)])
        a = complement_conjugator(R, crown, K1, K2)
        assert a == vec(QQ, (0, 1))  # a = y

    def test_identical_complements(self):
        R = builtin("r2")
        S = chief_series(R)
        crown = crown_of_factor(S.factors[0], S)
        K = crown_complement(R, crown)
        assert all(x == 0 for x in complement_conjugator(R, crown, K, K))

    def test_heis_unique_complement(self):
        H = builtin("heis")
        S = chief_series(H)
        crown = crown_of_factor(S.factors[1], S)
        K = crown_complement(H, crown)
        assert all(x == 0 for x in complement_conjugator(H, crown, K, K))

    def test_all_pairs_over_gf3(self):
        for name in ("r2", "heis", "ex22"):
            L = builtin(name, GF(3))
            S = chief_series(L)
            for crown in all_crowns(L, S):
                comps = complements_bf(L, crown.C, crown.R)
                for K1 in comps:
                    for K2 in comps:
                        a = complement_conjugator(L, crown, K1, K2)
                        ada = L.ad(a)
                        assert ada.matmul(ada).is_zero()
                        image = Subspace.from_vectors(
                            L.field, L.dim,
                            [tuple(L.field.add(x, y) for x, y in zip(k, ada.apply(k)))
                             for k in K1.basis],
                        )
                        assert image == K2

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=["gf3", "q-rebased"])
    def test_the_projected_system_finds_the_eliminated_witness(self, field):
        """The same element as ``old_unipotent_conjugator`` on every pair of
        crown complements that criterion 9 and ``test_all_pairs_over_gf3``
        walk over GF(3), and on translated complements of the same algebras
        in ``rebased(L, 1)`` over Q."""
        pairs = 0
        for name in ("r2", "heis", "ex22"):
            L = builtin(name, field)
            if field == QQ:
                L = rebased(L, 1)
            for crown in all_crowns(L, chief_series(L)):
                if field == QQ:
                    comps = translated_complements(L, crown)
                else:
                    comps = complements_bf(L, crown.C, crown.R)
                for K1 in comps:
                    for K2 in comps:
                        a = unipotent_conjugator(L, crown.C, K1, K2)
                        assert a == old_unipotent_conjugator(L, crown.C, K1, K2)
                        pairs += K1 != K2
        assert pairs >= 20

    def test_a_zero_numerator_cannot_move_a_complement(self):
        R = builtin("r2")
        zero, K1, K2 = R.zero_space(), R.span([(1, 0)]), R.span([(1, 1)])
        for conjugator in (unipotent_conjugator, old_unipotent_conjugator):
            with pytest.raises(CertificationFailure):
                conjugator(R, zero, K1, K2)
        assert unipotent_conjugator(R, zero, K1, K1) == zero_vec(QQ, 2)

    def test_non_complement_rejected(self):
        R = builtin("r2")
        S = chief_series(R)
        crown = crown_of_factor(S.factors[0], S)
        with pytest.raises(AlgebraError):
            complement_conjugator(R, crown, R.span([(0, 1)]), R.span([(1, 0)]))


class TestPrefrattini:
    def test_r2_trivial(self):
        assert prefrattini(builtin("r2")).is_zero()

    def test_heis_is_the_frattini_ideal(self):
        H = builtin("heis")
        assert prefrattini(H) == H.span([(0, 0, 1)])

    def test_ab1(self):
        assert prefrattini(builtin("ab(1)")).is_zero()

    def test_h3_plus_r2(self):
        HR = builtin("h3_plus_r2")
        assert prefrattini(HR) == HR.span([(0, 0, 1, 0, 0)])

    def test_contains_frattini_ideal_over_gf(self):
        from liestruct.oracle import frattini_ideal_bf

        for name, p in (("r2", 3), ("heis", 3), ("ex22", 3), ("h3_plus_r2", 2)):
            L = builtin(name, GF(p))
            P = prefrattini(L)
            assert P.contains_space(frattini_ideal_bf(L))

    def test_nonsolvable_rejected(self):
        with pytest.raises(AlgebraError):
            prefrattini(builtin("sl2"))


class TestCoverAvoid:
    def test_r2_profiles(self):
        R = builtin("r2")
        S = chief_series(R)
        crowns = {c.R.dim: c for c in all_crowns(R, S)}
        K0 = crown_complement(R, crowns[0])  # crown <y>/0
        assert cover_avoid_profile(R, K0, crowns[0], S) == [AVOIDS, COVERS]
        K1 = crown_complement(R, crowns[1])  # crown L/<y>
        assert cover_avoid_profile(R, K1, crowns[1], S) == [COVERS, AVOIDS]

    def test_heis_profile(self):
        H = builtin("heis")
        S = chief_series(H)
        crown = all_crowns(H, S)[0]
        K = crown_complement(H, crown)
        # the Frattini factor is outside the class and gets covered
        assert cover_avoid_profile(H, K, crown, S) == [COVERS, AVOIDS, AVOIDS]

    def test_every_solvable_profile_matches(self, corpus_q):
        from liestruct.algebra import is_solvable

        for L in corpus_q.values():
            if not is_solvable(L) or L.dim == 0:
                continue
            S = chief_series(L)
            for crown in all_crowns(L, S):
                K = crown_complement(L, crown)
                tags = cover_avoid_profile(L, K, crown, S)
                assert len(tags) == len(S.factors)


def probe_basis(L: LieAlgebra, seed: int) -> LieAlgebra:
    """L in the basis P e_0, ..., P e_{n-1}, with P drawn row by row, entries
    in {-1, 0, 1}, from ``random.Random(f"probe:{seed}:{n}")`` until
    invertible: ``transport(L, P^-1)``, whose table holds P^-1 [P e_a, P e_b]."""
    F, n = L.field, L.dim
    rng = random.Random(f"probe:{seed}:{n}")
    while True:
        P_inv = invert_matrix(Matrix(F, [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]))
        if P_inv is not None:
            return transport(L, P_inv)


class TestUndecidedConnectedness:
    @pytest.mark.parametrize("field,seed", [(GF(13), 1), (QQ, 2)], ids=["gf13-seed1", "q-seed2"])
    def test_sl2_to_the_fourth_in_a_probe_basis_reports(self, capsys, tmp_path, field, seed):
        """The four summands are pairwise connected, but a bounded type-3
        search leaves some pairs undecided in this basis: the classes close
        under the certified joins, and the report exits 0 instead of failing
        certification."""
        sl2 = builtin("sl2", field)
        L = probe_basis(direct_sum(direct_sum(direct_sum(sl2, sl2), sl2), sl2), seed)
        doc = tmp_path / "sl2x4.json"
        doc.write_text(save(L))
        assert cli.main(["report", "--input", str(doc), "--json"]) == cli.EXIT_OK
        found = json.loads(capsys.readouterr().out)["crowns"]
        keys = [(c["numerator"], c["denominator"]) for c in found]
        assert len(set(map(json.dumps, keys))) == len(keys)
        assert sum(c["rank"] for c in found) == 4


def fixed_relation(monkeypatch, series, relation):
    """Make ``crowns.connected`` answer ``(verdict, None, status)`` from
    ``relation``, keyed by pairs i < j of series indices, and run the real
    test on every other pair."""
    real = crowns.connected
    index = {f: k for k, f in enumerate(series.factors)}

    def connected(F1, F2):
        pair = tuple(sorted((index.get(F1, -1), index.get(F2, -1))))
        if pair in relation:
            return relation[pair][0], None, relation[pair][1]
        return real(F1, F2)

    monkeypatch.setattr(crowns, "connected", connected)


class TestClasses:
    UNSHOWN = undecided("bounded isomorphism search failed")

    def test_certified_joins_close_over_an_undecided_pair(self, monkeypatch):
        L = builtin("ab(3)")
        S = chief_series(L)
        fixed_relation(monkeypatch, S, {(0, 1): (True, CERTIFIED), (0, 2): (True, CERTIFIED),
                                        (1, 2): (False, self.UNSHOWN)})
        assert crowns._classes(L, S) == ((S.factors, CERTIFIED),)
        [crown] = all_crowns(L, S)
        assert crown.rank == 3 and crown.status == CERTIFIED

    def test_classes_not_told_apart_give_undecided_crowns(self, monkeypatch):
        """heis's two top factors, connected in truth, made undecided: two
        undecided classes.  The first crown fails its dimension check and
        its complement avoids the second top factor, against the class
        prediction; neither raises, and the crowns are undecided."""
        H = builtin("heis")
        S = chief_series(H)
        fixed_relation(monkeypatch, S, {(1, 2): (False, self.UNSHOWN)})
        classes = crowns._classes(H, S)
        assert [members for members, _ in classes] == [(S.factors[1],), (S.factors[2],)]
        assert all(st == self.UNSHOWN for _, st in classes)
        found = all_crowns(H, S)
        assert len(found) == 2 and len({c.key for c in found}) == 2
        assert found[0].status == undecided("wrong crown section dimension")
        assert found[1].status == self.UNSHOWN
        profiles = [cover_avoid_profile(H, crown_complement(H, c), c, S) for c in found]
        assert profiles == [[COVERS, AVOIDS, AVOIDS], [COVERS, COVERS, AVOIDS]]

    def test_classes_certified_apart_make_the_certificate_raise(self, monkeypatch):
        H = builtin("heis")
        S = chief_series(H)
        fixed_relation(monkeypatch, S, {(1, 2): (False, CERTIFIED)})
        with pytest.raises(CertificationFailure, match="wrong crown section dimension"):
            all_crowns(H, S)

    def test_a_pair_certified_apart_inside_a_class_raises(self, monkeypatch):
        L = builtin("ab(3)")
        S = chief_series(L)
        fixed_relation(monkeypatch, S, {(0, 1): (True, CERTIFIED), (0, 2): (True, CERTIFIED),
                                        (1, 2): (False, CERTIFIED)})
        with pytest.raises(CertificationFailure, match="one class"):
            crowns._classes(L, S)
