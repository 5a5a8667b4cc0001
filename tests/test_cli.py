import itertools
import json
import time

import pytest

from liestruct import cli
from liestruct.algebra import AlgebraError, LieAlgebra, direct_sum
from liestruct.cli import (
    EXIT_BUDGET,
    EXIT_CERT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
    parse_field,
)
from liestruct.corpus import MAX_DIM, save
from liestruct import builtin
from liestruct.fields import GF, QQ, FieldError
from liestruct.linalg import DimensionMismatch

from conftest import CORPUS_Q


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFieldParsing:
    def test_forms(self):
        assert parse_field("q") == QQ
        assert parse_field("Q") == QQ
        assert parse_field("gf3") == GF(3)
        assert parse_field("GF(7)") == GF(7)
        with pytest.raises(FieldError):
            parse_field("gf4")
        with pytest.raises(FieldError):
            parse_field("reals")


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "chief-series")  # no algebra given
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "--builtin", "r2")
        assert code == EXIT_USAGE

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{ nope")
        code, _, err = run(capsys, "validate", "--input", str(f))
        assert code == EXIT_PARSE and "invalid input" in err

    @pytest.mark.parametrize(
        "doc", [{"field": 3, "dim": 1}, {"field": {"kind": "GF", "p": "x"}, "dim": 1},
                {"field": {"kind": "Q"}, "dim": 2.5},
                {"field": {"kind": "Q"}, "dim": 2,
                 "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e10000000"}}]},
                {"field": {"kind": "Q"}, "dim": 2,
                 "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e4300"}}]}]
    )
    def test_malformed_document_exits_with_parse_code(self, capsys, tmp_path, doc):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "report", "--input", str(f))
        assert code == EXIT_PARSE and "invalid input" in err

    def test_dimension_above_the_bound_exits_with_parse_code(self, capsys, tmp_path):
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"field": {"kind": "Q"}, "dim": MAX_DIM + 1}))
        code, _, err = run(capsys, "report", "--input", str(f))
        assert code == EXIT_PARSE and "exceeds" in err

    def test_a_huge_modulus_exits_with_parse_code_at_once(self, capsys, tmp_path):
        """p = 2^127 - 1 in a document and 2^61 - 1 as ``--field``: refused
        by the bound before any trial division."""
        f = tmp_path / "huge_p.json"
        f.write_text(json.dumps({"field": {"kind": "GF", "p": 2**127 - 1}, "dim": 1}))
        start = time.perf_counter()
        code, _, err = run(capsys, "validate", "--input", str(f))
        assert code == EXIT_PARSE and "exceeds" in err
        code, _, err = run(capsys, "validate", "--builtin", "r2", "--field", f"gf{2**61 - 1}")
        assert code == EXIT_PARSE and "exceeds" in err
        assert time.perf_counter() - start < 1.0

    def test_validation_error(self, capsys, tmp_path):
        doc = {
            "field": {"kind": "Q"},
            "dim": 3,
            "basis": ["a", "b", "c"],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"2": "1"}},
                {"i": 0, "j": 2, "coeffs": {"0": "1"}},
            ],
        }
        f = tmp_path / "nonjacobi.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--input", str(f))
        assert code == EXIT_PARSE and "Jacobi" in err

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--builtin", "heis",
                           "--field", "gf3", "--max-subspaces", "5")
        assert code == EXIT_BUDGET and "budget" in err

    @pytest.mark.parametrize("flag,value", [("--max-subspaces", "0"), ("--max-subspaces", "-3"),
                                            ("--max-field-order", "-1"), ("--max-field-order", "0")])
    def test_a_non_positive_budget_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "oracle-check", "--builtin", "heis", "--field", "gf3",
                             flag, value)
        assert code == EXIT_USAGE and out == ""
        assert "not a positive integer" in err and "internal failure" not in err

    def test_a_builtin_above_the_dimension_bound_exits_with_parse_code(self, capsys):
        code, _, err = run(capsys, "validate", "--builtin", "ab(200)")
        assert code == EXIT_PARSE and "exceeds" in err

    def test_oracle_check_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--builtin", "heis", "--field", "gf3")
        assert code == EXIT_OK and "all checks agree" in out

    def test_oracle_check_needs_finite_field(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--builtin", "heis", "--field", "q")
        assert code == EXIT_BUDGET
        assert err == "budget exceeded: enumeration needs a finite field GF(p), not Q\n"

    def test_prefrattini_needs_solvable(self, capsys):
        code, _, err = run(capsys, "prefrattini", "--builtin", "sl2")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("error", [AlgebraError("no equivariant projection"),
                                       DimensionMismatch("inverse needs a square matrix")])
    def test_an_error_during_analysis_is_an_internal_failure(self, capsys, monkeypatch, error):
        """Raised after the algebra loaded, an error is the program's
        failure, not the input's: one line on stderr and exit code 3."""
        def failing(L, name):
            raise error

        monkeypatch.setattr(cli, "build_report", failing)
        code, out, err = run(capsys, "report", "--builtin", "heis", "--field", "gf3")
        assert code == EXIT_CERT and out == ""
        assert err.startswith("internal failure:") and str(error) in err
        assert err.count("\n") == 1

    def test_an_unreadable_input_is_invalid_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--input", str(tmp_path / "missing.json"))
        assert code == EXIT_PARSE and err.startswith("invalid input:")
        f = tmp_path / "binary.json"
        f.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "report", "--input", str(f))
        assert code == EXIT_PARSE and err.startswith("invalid input:")

    def test_an_error_while_loading_stays_invalid_input(self, capsys, monkeypatch):
        def failing(text):
            raise AlgebraError("no such algebra")

        monkeypatch.setattr(cli, "load", failing)
        code, _, err = run(capsys, "report", "--input", __file__)
        assert code == EXIT_PARSE and err == "invalid input: no such algebra\n"

    def test_field_with_input_is_a_usage_error(self, capsys, tmp_path):
        """A document names its own field, so ``--field`` beside ``--input``
        is refused rather than ignored."""
        f = tmp_path / "heis.json"
        f.write_text(save(builtin("heis")))
        code, out, err = run(capsys, "report", "--input", str(f), "--field", "gf5")
        assert code == EXIT_USAGE and out == "" and err.startswith("usage error:")
        code, out, _ = run(capsys, "report", "--input", str(f))
        assert code == EXIT_OK and out.splitlines()[0].endswith("over Q")

    def test_a_builtin_without_field_is_over_q(self, capsys):
        code, out, _ = run(capsys, "report", "--builtin", "heis")
        assert code == EXIT_OK and out.splitlines()[0] == "algebra heis of dimension 3 over Q"

    def test_strict_passes_on_certified_corpus(self, capsys):
        code, _, _ = run(capsys, "report", "--builtin", "heis", "--field", "gf3", "--strict")
        assert code == EXIT_OK


class TestCommands:
    def test_validate_builtin(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin", "ab3", "--field", "gf2")
        assert code == EXIT_OK and "valid" in out

    def test_info_json(self, capsys):
        code, out, _ = run(capsys, "info", "--builtin", "sl2", "--json")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["solvable"] is False and payload["derived_dims"] == [3]

    def test_chief_series_human(self, capsys):
        code, out, _ = run(capsys, "chief-series", "--builtin", "heis")
        assert code == EXIT_OK
        assert "frattini" in out and out.count("[") >= 3

    def test_crowns_json(self, capsys):
        code, out, _ = run(capsys, "crowns", "--builtin", "ex22", "--json")
        payload = json.loads(out)
        assert code == EXIT_OK and len(payload["crowns"]) == 3

    def test_primitive_json(self, capsys):
        code, out, _ = run(capsys, "primitive", "--builtin", "sl2_plus_sl2", "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "type3"
        assert payload["common_complement"] is not None

    def test_connected_spec_example(self, capsys):
        code, out, _ = run(capsys, "connected", "--builtin", "sl2_plus_sl2",
                           "--field", "q", "0", "1")
        assert code == EXIT_OK
        assert "connected via N = 0, type 3" in out

    def test_connected_not(self, capsys):
        code, out, _ = run(capsys, "connected", "--builtin", "ex22", "0", "1")
        assert code == EXIT_OK and "not connected" in out

    @pytest.mark.parametrize("selectors", [("-1", "0"), ("0", "-2"), ("0", "2"), ("5", "1")])
    def test_connected_refuses_selectors_outside_the_series(self, capsys, selectors):
        """sl2 + sl2 has two chief factors: -1 would index factor 1 from
        the end, and 2 is past it; both are usage errors."""
        code, out, err = run(capsys, "connected", "--builtin", "sl2_plus_sl2", *selectors)
        assert code == EXIT_USAGE and out == ""
        assert "bad factor selectors" in err

    def test_radical(self, capsys):
        code, out, _ = run(capsys, "radical", "--builtin", "gl2")
        assert code == EXIT_OK and "span{z}" in out

    def test_report_heis_gf3(self, capsys):
        code, out, _ = run(capsys, "report", "--builtin", "heis", "--field", "gf3")
        assert code == EXIT_OK
        assert "not_primitive" in out
        assert "prefrattini: span{z}" in out
        assert "rank 2" in out

    @pytest.mark.parametrize("cmd", [c for c in cli.COMMANDS if c != "connected"])
    def test_the_zero_algebra_runs_every_command(self, capsys, tmp_path, cmd):
        f = tmp_path / "zero.json"
        f.write_text(save(LieAlgebra(GF(3), 0, {})))
        code, _, err = run(capsys, cmd, "--input", str(f), "--json")
        assert code == EXIT_OK and err == ""

    def test_the_zero_algebra_has_a_chief_series_without_factors(self, capsys, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text(save(LieAlgebra(GF(3), 0, {})))
        code, out, _ = run(capsys, "report", "--input", str(f), "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["chief_series"] == {"chain": [[]], "factors": [], "status": "certified"}
        assert payload["crowns"] == [] and payload["prefrattini"] == []
        code, out, err = run(capsys, "connected", "--input", str(f), "0", "0")
        assert code == EXIT_USAGE and out == ""
        assert "bad factor selectors: the series has 0 factors" in err

    def test_input_file_round_trip(self, capsys, tmp_path):
        f = tmp_path / "heis.json"
        f.write_text(save(builtin("heis", GF(3))))
        code, out, _ = run(capsys, "report", "--input", str(f))
        assert code == EXIT_OK and "prefrattini" in out


class TestGoldenJson:
    @pytest.mark.parametrize("name,field", [
        ("ab1", "q"), ("ab2", "gf2"), ("ab3", "q"), ("r2", "q"), ("r2", "gf3"),
        ("heis", "q"), ("heis", "gf3"), ("ex22", "q"), ("sl2", "q"), ("gl2", "q"),
        ("aff_sl2", "q"), ("sl2_plus_sl2", "q"), ("h3_plus_r2", "q"),
    ])
    def test_report_schema_and_determinism(self, capsys, name, field):
        code1, out1, _ = run(capsys, "report", "--builtin", name, "--field", field, "--json")
        code2, out2, _ = run(capsys, "report", "--builtin", name, "--field", field, "--json")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2  # deterministic output for identical inputs
        payload = json.loads(out1)
        assert payload["schema_version"] == 1
        for key in ("algebra", "chief_series", "crowns", "primitive", "radical"):
            assert key in payload


class TestStrictUndecided:
    def test_exit_five_on_undecided_primitive(self, capsys, tmp_path):
        # two cross-centralizing non-isomorphic simple ideals: the bounded
        # isomorphism search declines, and --strict must surface that
        from liestruct.algebra import LieAlgebra, direct_sum
        from liestruct.cli import EXIT_UNDECIDED

        so3 = LieAlgebra(
            QQ, 3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}
        )
        L = direct_sum(builtin("sl2"), so3)
        f = tmp_path / "mixed.json"
        f.write_text(save(L))
        code, out, _ = run(capsys, "primitive", "--input", str(f))
        assert code == EXIT_OK and "undecided" in out
        code, out, _ = run(capsys, "primitive", "--input", str(f), "--strict")
        assert code == EXIT_UNDECIDED


    def test_prefrattini_strict_reads_the_crowns(self, capsys, tmp_path):
        """x acting on Q^5 by the companion matrix of t^5 - 2: the chief
        series [5, 1] and its crowns are heuristic, so every command that
        reports them exits 5 under --strict.  The radical is all of L,
        certified by the derived series, so it exits 0."""
        from liestruct.cli import EXIT_UNDECIDED
        from test_modules import x_acting_by_companion

        f = tmp_path / "companion5.json"
        f.write_text(save(x_acting_by_companion(QQ, [-2, 0, 0, 0, 0])))
        for cmd in ("chief-series", "crowns", "prefrattini"):
            assert run(capsys, cmd, "--input", str(f))[0] == EXIT_OK
            assert run(capsys, cmd, "--input", str(f), "--strict")[0] == EXIT_UNDECIDED
        assert run(capsys, "radical", "--input", str(f), "--strict")[0] == EXIT_OK


def old_space_str(L, U):
    if U.is_zero():
        return "0"
    if U.is_full():
        return "L"
    F = U.field
    parts = []
    for row in U.basis:
        terms = []
        for name, c in zip(L.basis_names, row):
            if F.is_zero(c):
                continue
            cs = F.scalar_to_str(c)
            if cs == "1":
                terms.append(name)
            elif cs == "-1":
                terms.append(f"-{name}")
            else:
                terms.append(f"{cs}*{name}")
        parts.append("+".join(terms).replace("+-", "-"))
    return "span{" + ", ".join(parts) + "}"


def old_render_report(L, report):
    lines = []
    alg = report["algebra"]
    fieldname = "Q" if alg["field"]["kind"] == "Q" else f"GF({alg['field']['p']})"
    lines.append(
        f"algebra {alg['name'] or '(file input)'} of dimension {alg['dim']} over {fieldname}"
    )
    lines.append(
        f"  solvable: {report['solvable']}   nilpotent: {report['nilpotent']}"
    )
    lines.append("chief series:")
    chain = report["chief_series"]["chain"]
    factors = report["chief_series"]["factors"]
    for i, f in enumerate(factors):
        flags = []
        flags.append("abelian" if f["abelian"] else "nonabelian")
        if f["frattini"]:
            flags.append("frattini")
        if f["supplemented"]:
            flags.append("supplemented")
        if f["complemented"] is True:
            flags.append("complemented")
        elif f["complemented"] is None:
            flags.append("complemented?")
        lines.append(
            f"  [{i}] dim {f['dim']}: {old_chain_str(L, report, i + 1)} / {old_chain_str(L, report, i)}"
            f"  ({', '.join(flags)})"
        )
    lines.append("crowns:")
    for c in report["crowns"]:
        lines.append(
            f"  C = {old_rows_str(L, c['numerator'])}, R = {old_rows_str(L, c['denominator'])}, rank {c['rank']}"
        )
    prim = report["primitive"]
    lines.append(f"primitive: {prim['verdict']}" + (f" ({prim['reason']})" if prim["reason"] else ""))
    lines.append(f"radical: {old_rows_str(L, report['radical']['space'])}")
    if report["prefrattini"] is not None:
        lines.append(f"prefrattini: {old_rows_str(L, report['prefrattini'])}")
    return "\n".join(lines)


def old_parse_rows(L, rows):
    from liestruct.linalg import Subspace

    F = L.field
    return Subspace.from_vectors(
        F, L.dim, [[F.scalar_from_str(x) for x in row] for row in rows]
    )


def old_rows_str(L, rows):
    return old_space_str(L, old_parse_rows(L, rows))


def old_chain_str(L, report, i):
    return old_rows_str(L, report["chief_series"]["chain"][i])


@pytest.mark.parametrize("field", ["q", "gf3"])
@pytest.mark.parametrize("name", CORPUS_Q)
def test_human_output_matches_the_old_renderer(monkeypatch, capsys, name, field):
    """Every subcommand prints the same text as the renderer that parsed
    and re-eliminated each space of the report before printing it."""
    from functools import lru_cache

    monkeypatch.setattr(cli, "builtin", lru_cache(maxsize=None)(builtin))  # one instance
    series_len = len(cli.chief_series(cli.builtin(name, parse_field(field))))
    argvs = [[cmd] for cmd in cli.COMMANDS if cmd != "connected"]
    argvs += [["connected", str(i), str(j)] for i in range(series_len) for j in range(series_len)]
    for argv in argvs:
        argv = argv + ["--builtin", name, "--field", field, "--max-subspaces", "2000"]
        new = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "space_str", old_space_str)
            m.setattr(cli, "render_report", old_render_report)
            assert run(capsys, *argv) == new


class TestUndecidedVerdictsAreShown:
    """A verdict that is not certified is printed with its status, never as
    a certified one: on sl2+sl2+sl2+sl2 in the probe basis over GF(13) at
    seed 1 a bounded type-3 search leaves some factor pairs undecided, and
    the sl3/Z factor of gl3/GF(3) has an undecided complemented flag."""

    @pytest.fixture(scope="class")
    def sl2_fourth(self, tmp_path_factory):
        from test_crowns import probe_basis

        sl2 = builtin("sl2", GF(13))
        f = tmp_path_factory.mktemp("sl2x4") / "sl2x4.json"
        f.write_text(save(probe_basis(direct_sum(direct_sum(direct_sum(sl2, sl2), sl2), sl2), 1)))
        return str(f)

    def test_connected_prints_an_undecided_pair_with_its_status(self, capsys, sl2_fourth):
        shown = []
        for i, j in itertools.combinations(range(4), 2):
            code, out, _ = run(capsys, "connected", "--input", sl2_fourth, str(i), str(j), "--json")
            payload = json.loads(out)
            _, human, _ = run(capsys, "connected", "--input", sl2_fourth, str(i), str(j))
            assert code == EXIT_OK
            if not payload["connected"]:
                assert human.strip() == f"not shown connected ({payload['status']})"
                shown.append((i, j))
        assert shown == [(0, 3), (1, 2), (1, 3), (2, 3)]
        assert payload["status"] == "undecided (bounded isomorphism search failed)"

    def test_crowns_prints_the_status_of_a_crown_not_certified(self, capsys, sl2_fourth):
        _, out, _ = run(capsys, "crowns", "--input", sl2_fourth, "--json")
        found = json.loads(out)["crowns"]
        _, human, _ = run(capsys, "crowns", "--input", sl2_fourth)
        lines = human.splitlines()
        assert len(lines) == len(found) == 2
        for line, crown in zip(lines, found):
            assert crown["status"] != "certified"
            assert line.endswith(f"rank {crown['rank']} ({crown['status']})")

    def test_report_prints_the_status_of_a_crown_not_certified(self, capsys, sl2_fourth):
        """``report`` prints each crown as ``crowns`` does, status included,
        and ``--strict`` fails on them."""
        _, out, _ = run(capsys, "crowns", "--input", sl2_fourth)
        want = out.splitlines()
        code, human, _ = run(capsys, "report", "--input", sl2_fourth, "--strict")
        lines = human.splitlines()
        start = lines.index("crowns:") + 1
        assert [f"crown {line.strip()}" for line in lines[start : start + len(want)]] == want
        assert lines[start + len(want)].startswith("primitive:")
        assert all(line.endswith("(undecided (bounded isomorphism search failed))") for line in want)
        assert code == EXIT_UNDECIDED

    def test_a_certified_crown_is_printed_without_a_status(self, capsys):
        _, human, _ = run(capsys, "crowns", "--builtin", "heis")
        assert human.strip().endswith("rank 2")

    @pytest.mark.parametrize("cmd", ["chief-series", "factors"])
    def test_an_undecided_complemented_flag_is_marked(self, capsys, tmp_path, cmd):
        from test_memo import gl3_on_matrix_units

        f = tmp_path / "gl3.json"
        f.write_text(save(gl3_on_matrix_units(3)))
        _, out, _ = run(capsys, cmd, "--input", str(f), "--json")
        flags = [factor["complemented"] for factor in json.loads(out)["factors"]]
        assert flags == [False, None, True]
        _, human, _ = run(capsys, cmd, "--input", str(f))
        lines = human.splitlines()
        assert lines[1].startswith("[1] dim 7 nonabelian, complemented?:")
        assert "complemented" not in lines[0] and "complemented:" in lines[2]
