import json
import sys

import pytest

from liestruct import builtin
from liestruct.algebra import AntisymmetryViolation, JacobiViolation, LieAlgebra
from liestruct.chief import module_isomorphic, classify_factor, solvable_radical
from liestruct.corpus import (
    FIXTURE_FACTS,
    MAX_DIM,
    ParseError,
    from_doc,
    load,
    save,
    to_doc,
)
from liestruct.crowns import all_crowns, prefrattini
from liestruct.fields import GF, QQ, FieldError
from liestruct.linalg import Subspace
from liestruct.primitive import classify_primitive

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q


class TestBuiltins:
    @pytest.mark.parametrize("name", CORPUS_Q)
    def test_construct_over_q(self, name):
        L = builtin(name, QQ)
        assert L.dim >= 1

    @pytest.mark.parametrize("name", CORPUS_GF3)
    def test_construct_over_gf3(self, name):
        builtin(name, GF(3))

    def test_field_incompatibilities(self):
        for name in ("sl2", "gl2", "aff_sl2", "sl2_plus_sl2"):
            with pytest.raises(FieldError):
                builtin(name, GF(2))
        with pytest.raises(FieldError):
            builtin("ex22", GF(5))  # t^2 + 1 = (t+2)(t+3) mod 5
        builtin("ex22", GF(7))  # 7 = 3 mod 4

    def test_aff_sl2_matches_semidirect_construction(self):
        # the fixture table is literally the semidirect sum of the natural
        # module by sl2, so its minimal ideal is the module
        from liestruct.modules import socle_and_minimal_ideals

        A = builtin("aff_sl2")
        info = socle_and_minimal_ideals(A, A.zero_space())
        assert [W.basis for W in info.minimals] == [
            A.span([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]).basis
        ]

    def test_abelian_fixture_above_the_bound_is_refused(self, monkeypatch):
        """Refused before the algebra is built and its Jacobi identity
        checked; at the bound itself the fixture still loads."""
        from liestruct import corpus
        from liestruct.algebra import AlgebraError

        with monkeypatch.context() as m:
            m.setattr(corpus, "LieAlgebra", None)  # building anything would raise TypeError
            with pytest.raises(AlgebraError, match="exceeds"):
                builtin(f"ab({MAX_DIM + 1})")
        assert builtin(f"ab({MAX_DIM})", GF(2)).dim == MAX_DIM

    def test_unknown_name(self):
        from liestruct.algebra import AlgebraError

        with pytest.raises(AlgebraError):
            builtin("so8")


def _space(L, rows):
    return Subspace.from_vectors(L.field, L.dim, rows)


def replay_fact(fact):
    L = builtin(fact.algebra, QQ)
    payload = fact.payload
    if fact.kind == "centralizer":
        from liestruct.algebra import centralizer

        assert centralizer(L, _space(L, payload["of"])) == _space(L, payload["equals"])
    elif fact.kind == "type":
        w = classify_primitive(L)
        assert w.verdict == payload["verdict"]
        if "monolith" in payload:
            assert w.monolith == _space(L, payload["monolith"])
    elif fact.kind == "crown_count":
        assert len(all_crowns(L)) == payload["count"]
    elif fact.kind == "crown":
        keys = {(c.C.basis, c.R.basis, c.rank) for c in all_crowns(L)}
        expected = (
            _space(L, payload["numerator"]).basis,
            _space(L, payload["denominator"]).basis,
            payload["rank"],
        )
        assert expected in keys
    elif fact.kind == "prefrattini":
        assert prefrattini(L) == _space(L, payload["space"])
    elif fact.kind == "radical":
        rad, _ = solvable_radical(L)
        assert rad == _space(L, payload["space"])
    elif fact.kind == "frattini_gf3":
        from liestruct.oracle import frattini_ideal_bf

        L3 = builtin(fact.algebra, GF(3))
        assert frattini_ideal_bf(L3) == _space(L3, payload["space"])
    elif fact.kind == "not_module_isomorphic":
        f1 = classify_factor(L, _space(L, payload["A1"]), L.zero_space())
        f2 = classify_factor(L, _space(L, payload["A2"]), L.zero_space())
        ok, _, status = module_isomorphic(f1, f2)
        assert not ok and status.certified
    else:
        raise AssertionError(f"unknown fact kind {fact.kind}")


class TestFactSheets:
    @pytest.mark.parametrize("fact", FIXTURE_FACTS,
                             ids=[f"{f.algebra}-{f.kind}" for f in FIXTURE_FACTS])
    def test_replay(self, fact):
        replay_fact(fact)

    def test_every_builtin_documents_something(self):
        names = {f.algebra for f in FIXTURE_FACTS}
        for name in ("r2", "heis", "ex22", "sl2", "gl2", "aff_sl2",
                     "sl2_plus_sl2", "h3_plus_r2"):
            assert name in names

    @pytest.mark.parametrize("name", [n for n in CORPUS_GF3 if n not in ("ab(1)", "ab(2)", "ab(3)")])
    def test_finite_field_replay_against_oracle(self, name):
        # the analytic primitive verdict over GF(3) must match enumeration
        from liestruct.oracle import primitive_bf

        L = builtin(name, GF(3))
        assert classify_primitive(L).verdict == primitive_bf(L).verdict


class TestSerialization:
    @pytest.mark.parametrize("name", CORPUS_Q)
    def test_round_trip_q(self, name):
        L = builtin(name, QQ)
        doc = save(L)
        L2 = load(doc)
        assert L2.table == L.table and L2.basis_names == L.basis_names
        assert save(L2) == doc  # byte-stable

    @pytest.mark.parametrize("name", CORPUS_GF2)
    def test_round_trip_gf2(self, name):
        L = builtin(name, GF(2))
        doc = save(L)
        assert save(load(doc)) == doc

    def test_load_builds_its_algebra_once(self, monkeypatch):
        L = builtin("h3_plus_r2", QQ)
        doc = save(L)
        built = []
        orig_init = LieAlgebra.__init__

        def init(self, *args, **kwargs):
            built.append(args)
            orig_init(self, *args, **kwargs)

        monkeypatch.setattr(LieAlgebra, "__init__", init)
        L2 = load(doc)
        assert len(built) == 1
        assert L2 == L and L2.basis_names == L.basis_names

    def test_one_sided_bracket_entry_mirrors(self):
        doc = {
            "field": {"kind": "Q"},
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [{"i": 1, "j": 0, "coeffs": {"1": "-1"}}],  # [y,x] = -y
        }
        L = from_doc(doc)
        assert L.table == builtin("r2").table

    def test_rational_coefficients(self):
        doc = {
            "field": {"kind": "Q"},
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "3/2"}}],
        }
        L = from_doc(doc)
        from fractions import Fraction

        assert L.table[(0, 1)] == (Fraction(0), Fraction(3, 2))

    def test_self_bracket_rejected(self):
        doc = to_doc(builtin("r2"))
        doc["brackets"].append({"i": 1, "j": 1, "coeffs": {"0": "1"}})
        with pytest.raises(AntisymmetryViolation):
            from_doc(doc)

    def test_jacobi_failure_rejected_with_indices(self):
        doc = {
            "field": {"kind": "Q"},
            "dim": 3,
            "basis": ["a", "b", "c"],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"2": "1"}},
                {"i": 0, "j": 2, "coeffs": {"0": "1"}},
            ],
        }
        with pytest.raises(JacobiViolation) as exc:
            from_doc(doc)
        assert exc.value.indices == (0, 1, 2)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            load("{ bad json")
        assert "line 1" in str(exc.value)

    def test_out_of_range_indices(self):
        doc = {
            "field": {"kind": "Q"},
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [{"i": 0, "j": 5, "coeffs": {"0": "1"}}],
        }
        with pytest.raises(ParseError):
            from_doc(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"field": 3, "dim": 1},
            {"field": {"kind": "GF", "p": "x"}, "dim": 1},
            {"field": {"kind": "GF", "p": 3.0}, "dim": 1},
            {"field": {"kind": "GF", "p": True}, "dim": 1},
            {"field": {"kind": "GF", "p": 4}, "dim": 1},
            {"field": {"kind": "R"}, "dim": 1},
            {"field": {"kind": "Q"}, "dim": 2.5},
            {"field": {"kind": "Q"}, "dim": True},
            {"field": {"kind": "Q"}, "dim": 1e9},
            {"field": {"kind": "Q"}, "dim": -1},
            {"field": {"kind": "Q"}, "dim": "2"},
            {"field": {"kind": "Q"}},
            {"dim": 1},
            [],
            "text",
            None,
            {"field": {"kind": "Q"}, "dim": 2, "basis": "xy"},
            {"field": {"kind": "Q"}, "dim": 2, "basis": [0, 1]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": 5},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [5]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": "x", "j": 1}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0.5, "j": 1}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": False, "j": 1}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [1]}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"x": "1"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"-1": "1"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": [1]}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": 0.5}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1/0"}}]},
            {"field": {"kind": "GF", "p": 3}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1/3"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e10000000"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1E-10000000"}}]},
            {"field": {"kind": "GF", "p": 3}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e10000000"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e4300"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e-4300"}}]},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [
                {"i": 0, "j": 1, "coeffs": {"1": "1"}}, {"i": 0, "j": 1, "coeffs": {"0": "5"}},
            ]},
        ],
    )
    def test_malformed_document_is_a_parse_error(self, doc):
        with pytest.raises(ParseError):
            from_doc(doc)
        with pytest.raises(ParseError):
            load(json.dumps(doc))

    def test_dim_above_the_bound_is_a_parse_error(self):
        """Refused before the dim^3 table or the basis names are built; the
        dimension is one over the bound, so a misplaced check allocates
        little."""
        doc = {"field": {"kind": "Q"}, "dim": MAX_DIM + 1}
        with pytest.raises(ParseError, match="exceeds"):
            from_doc(doc)
        with pytest.raises(ParseError, match="exceeds"):
            load(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            {"field": {"kind": "Q"}, "dim": 10**5000},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 10**5000, "j": 1}]},
            {"field": {"kind": "GF", "p": -10**5000}, "dim": 2},
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 10**5000}}]},
        ],
        ids=["dim", "bracket-index", "gf-modulus", "coefficient"],
    )
    def test_an_over_long_integer_is_a_parse_error(self, doc):
        """``repr`` of an integer past the 4,300-digit limit raises
        ``ValueError``; no error message may format one.  JSON text cannot
        carry such an integer, but ``from_doc`` is public."""
        with pytest.raises(ParseError):
            from_doc(doc)

    def test_an_over_long_modulus_is_a_field_error(self):
        with pytest.raises(FieldError, match="not prime"):
            GF(-10**5000)

    def test_an_over_long_coefficient_is_not_saved(self):
        """An algebra built in code may hold a coefficient that no string can
        carry; ``save`` refuses it with the limit instead of ``str``'s
        ``ValueError``."""
        limit = sys.get_int_max_str_digits()
        L = LieAlgebra(QQ, 2, {(0, 1): (0, 10 ** max(limit, 4300))})
        with pytest.raises(FieldError, match=str(limit)):
            save(L)

    def test_non_finite_and_deep_json_are_parse_errors(self):
        with pytest.raises(ParseError):
            load('{"field": {"kind": "Q"}, "dim": 2, "brackets": '
                 '[{"i": 0, "j": 1, "coeffs": {"0": Infinity}}]}')
        with pytest.raises(ParseError):
            load("[" * 100_000 + "]" * 100_000)

    def test_a_pair_and_its_consistent_reverse_load(self):
        doc = {"field": {"kind": "Q"}, "dim": 2, "brackets": [
            {"i": 0, "j": 1, "coeffs": {"1": "1"}}, {"i": 1, "j": 0, "coeffs": {"1": "-1"}},
        ]}
        assert from_doc(doc).table == builtin("r2").table

    def test_integer_coefficients_and_digit_keys_load(self):
        L = from_doc(
            {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": "0", "j": 1, "coeffs": {"1": 1}}]}
        )
        assert L.table == builtin("r2").table

    def test_exponent_notation_within_the_digit_limit_loads(self):
        doc = {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "2.5e3"}}]}
        assert from_doc(doc).bracket((1, 0), (0, 1)) == (0, 2500)
        doc["brackets"][0]["coeffs"]["1"] = "1E5"
        assert from_doc(doc).bracket((1, 0), (0, 1)) == (0, 100000)

    def test_a_coefficient_within_the_digit_limit_saves_back(self):
        digits = sys.get_int_max_str_digits() or 4300
        coeff = f"1e{digits - 1}"  # exactly ``digits`` digits
        doc = {"field": {"kind": "Q"}, "dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": coeff}}]}
        L = from_doc(doc)
        assert load(save(L)) == L

    def test_gf_coefficients_normalized(self):
        L = builtin("heis", GF(3))
        doc = json.loads(save(L))
        assert doc["field"] == {"kind": "GF", "p": 3}
        for entry in doc["brackets"]:
            for v in entry["coeffs"].values():
                assert v in ("1", "2")
