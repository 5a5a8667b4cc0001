"""The acceptance gate: one test per criterion, exact arithmetic throughout
(no tolerances anywhere).  Each passing criterion prints one line; run with
``pytest tests/test_acceptance.py -s`` to see them inline, or rely on the
terminal summary emitted from conftest.
"""

import itertools
import time

from liestruct import builtin
from liestruct.algebra import (
    centralizer,
    core,
    is_solvable,
    quotient_algebra,
)
from liestruct.chief import (
    chief_series,
    chief_series_variants,
    classify_factor,
    connected,
    jordan_holder_match,
    module_isomorphic,
    radical_centralizer_formula,
    solvable_radical,
)
from liestruct.crowns import (
    all_crowns,
    complement_conjugator,
    cover_avoid_profile,
    crown_complement,
    crown_of_factor,
    prefrattini,
)
from liestruct.fields import GF, QQ
from liestruct.linalg import Subspace, intersect_many
from liestruct.modules import module_isomorphism, socle_and_minimal_ideals
from liestruct.oracle import (
    EnumBudget,
    complements_bf,
    enum_structures,
    four_core_intersections,
    frattini_ideal_bf,
    prefrattini_bf,
    primitive_bf,
)
from liestruct.primitive import classify_primitive, type_equivalence_witnesses

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q

RESULTS = []


def passline(number, text):
    line = f"ACCEPTANCE {number:2d}: PASS  {text}"
    RESULTS.append(line)
    print(line)


def corpus_series_q():
    for name in CORPUS_Q:
        L = builtin(name, QQ)
        yield name, L, chief_series(L)


def test_criterion_01_published_example():
    start = time.monotonic()
    E = builtin("ex22", QQ)
    a = E.span([(1, 0, 0, 0)])
    bc = E.span([(0, 1, 0, 0), (0, 0, 1, 0)])
    abc = E.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert centralizer(E, a) == abc
    assert centralizer(E, bc) == abc
    f1 = classify_factor(E, a, E.zero_space())
    f2 = classify_factor(E, bc, E.zero_space())
    ok, _, status = module_isomorphic(f1, f2)
    assert not ok and status.certified
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    passline(1, f"shared centralizers without module isomorphism ({elapsed:.2f}s < 1s)")


def test_criterion_02_primitive_classification():
    start = time.monotonic()
    assert classify_primitive(builtin("r2", QQ)).verdict == "type1"
    assert classify_primitive(builtin("sl2", QQ)).verdict == "type2"
    w3 = classify_primitive(builtin("sl2_plus_sl2", QQ))
    D = builtin("sl2_plus_sl2", QQ)
    diag = D.span([(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)])
    assert w3.verdict == "type3" and w3.common_complement == diag
    assert classify_primitive(builtin("heis", QQ)).verdict == "not_primitive"
    checked = 0
    for p, names in ((2, CORPUS_GF2), (3, CORPUS_GF3)):
        for name in names:
            L = builtin(name, GF(p))
            analytic = classify_primitive(L)
            bf = primitive_bf(L, EnumBudget(max_field_order=3))
            assert analytic.verdict == bf.verdict, (name, p)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    passline(2, f"types match the enumeration verdicts on {checked} finite-field builtins ({elapsed:.1f}s < 60s)")


def test_criterion_03_centralizer_criterion():
    pairs = 0
    for name, L, S in corpus_series_q():
        nonab = [f for f in S.factors if not f.abelian]
        for f1 in nonab:
            for f2 in nonab:
                iso, status = module_isomorphism(f1.module(), f2.module())
                assert status.certified
                assert (iso is not None) == (f1.centralizer == f2.centralizer), name
                pairs += 1
    passline(3, f"module isomorphism equals centralizer equality on {pairs} nonabelian pairs")


def test_criterion_04_strengthened_jordan_holder():
    multi = 0
    for name in CORPUS_Q:
        L = builtin(name, QQ)
        variants = chief_series_variants(L, limit=4)
        if len(variants) >= 2:
            multi += 1
        for S1, S2 in itertools.combinations(variants, 2):
            match = jordan_holder_match(S1, S2)
            seen1 = sorted(i for i, _, _ in match.pairs)
            seen2 = sorted(j for _, j, _ in match.pairs)
            assert seen1 == list(range(len(S1.factors)))
            assert seen2 == list(range(len(S2.factors)))
            for i, j, witness in match.pairs:
                assert witness is not None
                assert S1.factors[i].frattini == S2.factors[j].frattini
    # the Frattini factor class pairs across series of heis + r2
    HR = builtin("h3_plus_r2", QQ)
    variants = chief_series_variants(HR, limit=4)
    assert len(variants) >= 2
    for other in variants[1:]:
        match = jordan_holder_match(variants[0], other)
        frat_pairs = [
            (i, j) for i, j, _ in match.pairs if variants[0].factors[i].frattini
        ]
        assert frat_pairs and all(other.factors[j].frattini for _, j in frat_pairs)
    assert multi >= 3  # algebras with genuinely distinct series exist in the corpus
    passline(4, "bijections with isomorphism witnesses and matching Frattini flags across permuted series")


def test_criterion_05_connectedness_equivalence():
    triples = 0
    for name, L, S in corpus_series_q():
        n = len(S.factors)
        rel = {}
        for i in range(n):
            for j in range(n):
                ok, _, status = connected(S.factors[i], S.factors[j])
                assert status.certified, name
                rel[(i, j)] = ok
        for i in range(n):
            assert rel[(i, i)]  # reflexive
            for j in range(n):
                assert rel[(i, j)] == rel[(j, i)]  # symmetric
                for k in range(n):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)], name  # transitive
                    triples += 1
    D = builtin("sl2_plus_sl2", QQ)
    S = chief_series(D)
    assert connected(S.factors[0], S.factors[1])[0]
    assert not module_isomorphic(S.factors[0], S.factors[1])[0]
    passline(5, f"equivalence laws hold over {triples} factor triples; the double copy connects without isomorphism")


def test_criterion_06_crown_structure():
    for name, L, S in corpus_series_q():
        for f in S.factors:
            if not f.supplemented:
                continue
            crown = crown_of_factor(f, S)  # certification happens inside
            info = socle_and_minimal_ideals(L, crown.R)
            assert info.soc == crown.C, name
            assert crown.C.dim - crown.R.dim == crown.rank * f.dim, name
            for W in info.minimals:
                g = classify_factor(L, W, crown.R)
                assert connected(g, f)[0], name
    for name, p in (("heis", 3), ("heis", 2), ("r2", 3), ("ex22", 3), ("h3_plus_r2", 2)):
        L = builtin(name, GF(p))
        S = chief_series(L)
        for crown in all_crowns(L, S):
            q = quotient_algebra(L, crown.R).algebra
            assert frattini_ideal_bf(q).is_zero(), (name, p)
    H = builtin("heis", QQ)
    heis_crowns = {(c.C.basis, c.R.basis, c.rank) for c in all_crowns(H)}
    assert heis_crowns == {(H.full_space().basis, H.span([(0, 0, 1)]).basis, 2)}
    E = builtin("ex22", QQ)
    abc = E.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert {(c.C.basis, c.R.basis, c.rank) for c in all_crowns(E)} == {
        (abc.basis, E.span([(0, 1, 0, 0), (0, 0, 1, 0)]).basis, 1),
        (abc.basis, E.span([(1, 0, 0, 0)]).basis, 1),
        (E.full_space().basis, abc.basis, 1),
    }
    D = builtin("sl2_plus_sl2", QQ)
    assert {(c.C.basis, c.R.basis, c.rank) for c in all_crowns(D)} == {
        (D.full_space().basis, D.zero_space().basis, 2)
    }
    passline(6, "socle identity, section dimensions and the named crown tables all verified")


def test_criterion_07_crowns_versus_connectedness():
    pairs = 0
    for name, L, S in corpus_series_q():
        supplemented = [f for f in S.factors if f.supplemented]
        crowns = [crown_of_factor(f, S) for f in supplemented]
        for (f1, c1), (f2, c2) in itertools.combinations(zip(supplemented, crowns), 2):
            assert connected(f1, f2)[0] == (c1.key == c2.key), name
            pairs += 1
    passline(7, f"same crown exactly when connected, on {pairs} supplemented pairs")


def test_criterion_08_radical_formulas():
    for name in ("gl2", "sl2_plus_sl2", "aff_sl2"):
        L = builtin(name, QQ)
        rad, status = solvable_radical(L)
        assert status.certified
        S = chief_series(L)
        # centralizer intersection over nonabelian factors
        assert radical_centralizer_formula(L, S) == rad, name
        # crown-denominator intersection over nonabelian crowns
        nonab = [c.R for c in all_crowns(L, S) if not c.class_rep.abelian]
        assert nonab and intersect_many(nonab) == rad, name
        # type-2/3 maximal core intersection from the oracle over GF(3)
        L3 = builtin(name, GF(3))
        rad3, _ = solvable_radical(L3)
        cores = []
        for M in enum_structures(L3).maximal_subalgebras:
            ML = core(L3, M)
            q = quotient_algebra(L3, ML).algebra
            w = primitive_bf(q)
            if w.verdict in ("type2", "type3"):
                cores.append(ML)
        assert cores and intersect_many(cores) == rad3, name
    passline(8, "three radical formulas agree on gl2, the double copy and the affine extension")


def test_criterion_09_complement_conjugacy():
    checked = 0
    for name in ("r2", "heis"):
        for field in (QQ, GF(3)):
            L = builtin(name, field)
            S = chief_series(L)
            for crown in all_crowns(L, S):
                complements = [crown_complement(L, crown)]
                if isinstance(field, type(GF(3))) or field == GF(3):
                    complements = list(complements_bf(L, crown.C, crown.R))
                else:
                    # produce more complements by translating with inner
                    # square-nilpotent automorphisms from the numerator
                    from liestruct.algebra import nilpotent_automorphism

                    K = complements[0]
                    for cb in crown.C.basis:
                        ada = L.ad(cb)
                        if ada.matmul(ada).is_zero():
                            complements.append(
                                nilpotent_automorphism(L, cb).apply_space(K)
                            )
                for K1 in complements:
                    for K2 in complements:
                        a = complement_conjugator(L, crown, K1, K2)
                        assert crown.C.contains(a)
                        ada = L.ad(a)
                        assert ada.matmul(ada).is_zero()
                        F = L.field
                        image = Subspace.from_vectors(
                            F, L.dim,
                            [tuple(F.add(x, y) for x, y in zip(k, ada.apply(k)))
                             for k in K1.basis],
                        )
                        assert image == K2
                        checked += 1
    passline(9, f"{checked} complement pairs conjugated by square-nilpotent elements of the numerator")


def test_criterion_10_prefrattini():
    for p, names in ((2, CORPUS_GF2), (3, CORPUS_GF3)):
        for name in names:
            L = builtin(name, GF(p))
            if not is_solvable(L):
                continue
            S = chief_series(L)
            bf_set, _ = prefrattini_bf(L, S)
            crowns = all_crowns(L, S)
            crown_comps = [complements_bf(L, c.C, c.R) for c in crowns]
            via_crowns = set()
            for picks in itertools.product(*crown_comps):
                via_crowns.add(
                    intersect_many(list(picks)) if picks else L.full_space()
                )
            assert via_crowns == set(bf_set), (name, p)
    H = builtin("heis", QQ)
    assert prefrattini(H) == H.span([(0, 0, 1)])
    assert prefrattini(builtin("r2", QQ)).is_zero()
    passline(10, "crown-complement intersections exhaust the definition-based prefrattini sets")


def test_criterion_11_cover_avoid():
    factors = 0
    for name, L, S in corpus_series_q():
        if not is_solvable(L):
            continue
        for crown in all_crowns(L, S):
            K = crown_complement(L, crown)
            tags = cover_avoid_profile(L, K, crown, S)  # asserts the prediction
            factors += len(tags)
    for name, p in (("r2", 3), ("heis", 3), ("ex22", 3), ("h3_plus_r2", 2)):
        L = builtin(name, GF(p))
        S = chief_series(L)
        for crown in all_crowns(L, S):
            for K in complements_bf(L, crown.C, crown.R):
                tags = cover_avoid_profile(L, K, crown, S)
                factors += len(tags)
    passline(11, f"cover/avoid dichotomy matched the class prediction on {factors} factor inspections")


def test_criterion_12_type_equivalences():
    for name in ("r2", "aff_sl2", "sl2_plus_sl2", "ab(1)"):
        rep = type_equivalence_witnesses(builtin(name, QQ))
        assert rep.verdict in ("type1", "type3")
        assert rep.model_witness.verdict == rep.verdict, name
    S = builtin("sl2", QQ)
    rep = type_equivalence_witnesses(S)
    assert rep.verdict == "type2"
    assert rep.model_witness.verdict == "type3"
    assert rep.model.dim == 6 and rep.B.dim == 3
    passline(12, "semidirect rebuilds verified for types 1 and 3; the inflation of the simple algebra is type 3")


def test_criterion_13_oracle_lemma_intersections():
    checked = 0
    for p, names in ((2, CORPUS_GF2), (3, CORPUS_GF3)):
        for name in names:
            L = builtin(name, GF(p))
            if not is_solvable(L):
                continue
            S = chief_series(L)
            for crown in all_crowns(L, S):
                inters = four_core_intersections(L, crown.class_rep, S)
                assert len({i.basis for i in inters}) == 1, (name, p)
                assert inters[0] == crown.R, (name, p)
                checked += 1
    passline(13, f"the four core-intersections coincide on {checked} crowns of in-budget solvable algebras")
