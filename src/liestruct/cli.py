"""Command-line interface: structure reports for Lie algebras given by
structure constants, in human-readable or JSON form.

Exit codes: 0 success, 1 usage, 2 parse/validation (errors raised while
loading the algebra, or an algebra outside a command's hypotheses), 3
internal failure (an error raised during the analysis of a loaded algebra:
a certification failure, an analytic/oracle mismatch or any other error), 4
enumeration budget exceeded, 5 an undecided or heuristic verdict was reached
under --strict.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .algebra import (
    LieAlgebra,
    center,
    derived_series,
    is_nilpotent,
    is_solvable,
    lower_central_series,
)
from .chief import chief_series, connected, solvable_radical
from .corpus import builtin, load
from .crowns import all_crowns, prefrattini
from .fields import GF, QQ, Field, FieldError, field_to_doc
from .linalg import Subspace
from .oracle import BudgetExceeded, EnumBudget, oracle_check
from .primitive import classify_primitive
from .status import CertificationFailure

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CERT = 3
EXIT_BUDGET = 4
EXIT_UNDECIDED = 5


def parse_field(text: str) -> Field:
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return QQ
    m = re.fullmatch(r"gf\(?(\d+)\)?", t)
    if m:
        return GF(int(m.group(1)))
    raise FieldError(f"cannot parse field {text!r}; use q or gfP")


def space_doc(U: Subspace) -> list:
    F = U.field
    return [[F.scalar_to_str(x) for x in row] for row in U.basis]


def space_str(L: LieAlgebra, U: Subspace) -> str:
    return _rows_str(L, space_doc(U))


def _rows_str(L: LieAlgebra, rows: list) -> str:
    """A subspace given by its basis rows as ``space_doc`` prints them."""
    if not rows:
        return "0"
    if len(rows) == L.dim:
        return "L"
    parts = []
    for row in rows:
        terms = []
        for name, cs in zip(L.basis_names, row):
            if cs == "0":
                continue
            if cs == "1":
                terms.append(name)
            elif cs == "-1":
                terms.append(f"-{name}")
            else:
                terms.append(f"{cs}*{name}")
        parts.append("+".join(terms).replace("+-", "-"))
    return "span{" + ", ".join(parts) + "}"


def factor_doc(idx: int, f) -> dict:
    return {
        "index": idx,
        "A": space_doc(f.A),
        "B": space_doc(f.B),
        "dim": f.dim,
        "abelian": f.abelian,
        "centralizer": space_doc(f.centralizer),
        "supplemented": f.supplemented,
        "complemented": f.complemented,
        "frattini": f.frattini,
    }


def series_doc(series) -> dict:
    return {
        "chain": [space_doc(S) for S in series.chain],
        "factors": [factor_doc(i, f) for i, f in enumerate(series.factors)],
        "status": str(series.status),
    }


def crowns_doc(crowns) -> list:
    return [
        {
            "numerator": space_doc(c.C),
            "denominator": space_doc(c.R),
            "rank": c.rank,
            "abelian": c.class_rep.abelian,
            "status": str(c.status),
        }
        for c in crowns
    ]


def primitive_doc(w) -> dict:
    def optional(U):
        return space_doc(U) if U else None

    return {
        "verdict": w.verdict,
        "reason": w.reason,
        "monolith": optional(w.monolith),
        "core_free_maximal": optional(w.core_free_maximal),
        "common_complement": optional(w.common_complement),
        "status": str(w.status),
    }


def build_report(L: LieAlgebra, name: Optional[str]) -> dict:
    series = chief_series(L)
    crowns = all_crowns(L, series)
    witness = classify_primitive(L)
    rad, rad_status = solvable_radical(L)
    solvable = is_solvable(L)
    report = {
        "schema_version": SCHEMA_VERSION,
        "algebra": {
            "name": name,
            "field": field_to_doc(L.field),
            "dim": L.dim,
            "basis": list(L.basis_names),
        },
        "solvable": solvable,
        "nilpotent": is_nilpotent(L),
        "chief_series": series_doc(series),
        "crowns": crowns_doc(crowns),
        "primitive": primitive_doc(witness),
        "radical": {"space": space_doc(rad), "status": str(rad_status)},
        "prefrattini": space_doc(prefrattini(L, series=series)) if solvable else None,
    }
    return report


def render_report(L: LieAlgebra, report: dict) -> str:
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
            f"  [{i}] dim {f['dim']}: {_rows_str(L, chain[i + 1])} / {_rows_str(L, chain[i])}"
            f"  ({', '.join(flags)})"
        )
    lines.append("crowns:")
    for c in report["crowns"]:
        lines.append(
            f"  C = {_rows_str(L, c['numerator'])}, R = {_rows_str(L, c['denominator'])}, rank {c['rank']}"
            + ("" if c["status"] == "certified" else f" ({c['status']})")
        )
    prim = report["primitive"]
    lines.append(f"primitive: {prim['verdict']}" + (f" ({prim['reason']})" if prim["reason"] else ""))
    lines.append(f"radical: {_rows_str(L, report['radical']['space'])}")
    if report["prefrattini"] is not None:
        lines.append(f"prefrattini: {_rows_str(L, report['prefrattini'])}")
    return "\n".join(lines)


def _load_algebra(args) -> tuple[LieAlgebra, Optional[str]]:
    """The algebra and its builtin name; every error met while reading,
    parsing or validating it is raised as ``InvalidInput``."""
    if args.builtin and args.input:
        raise UsageError("give either --builtin or --input, not both")
    if not (args.builtin or args.input):
        raise UsageError("an algebra is required: --builtin NAME or --input FILE")
    if args.field is not None and args.input:
        raise UsageError("--field is for --builtin; a document names its own field")
    try:
        if args.builtin:
            field = parse_field(args.field) if args.field else QQ
            return builtin(args.builtin, field), args.builtin
        with open(args.input) as fh:
            return load(fh.read()), None
    except (OSError, ValueError) as exc:  # ParseError, FieldError, AlgebraError among them
        raise InvalidInput(str(exc)) from exc


class UsageError(ValueError):
    pass


class InvalidInput(ValueError):
    """A document or builtin that does not load, or an algebra outside the
    hypotheses of the command asked for."""


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _budget(args) -> EnumBudget:
    return EnumBudget(
        max_subspaces=args.max_subspaces, max_field_order=args.max_field_order
    )


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _strict_gate(args, *statuses) -> int:
    if args.strict and any(not str(s).startswith("certified") for s in statuses):
        return EXIT_UNDECIDED
    return EXIT_OK


COMMANDS = (
    "validate", "info", "chief-series", "factors", "crowns", "prefrattini",
    "primitive", "connected", "radical", "oracle-check", "report",
)


def main(argv: Optional[list] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="algebra document file")
    common.add_argument("--builtin", help="builtin fixture name")
    common.add_argument("--field", help="field for --builtin: q (the default) or gfP")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--strict", action="store_true",
                        help="nonzero exit on heuristic or undecided results")
    common.add_argument("--max-subspaces", type=positive_int, default=500_000)
    common.add_argument("--max-field-order", type=positive_int, default=4)
    parser = argparse.ArgumentParser(
        prog="liestruct",
        description="chief-factor structure reports for finite-dimensional Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd, parents=[common])
        if cmd == "connected":
            p.add_argument("selectors", nargs=2, type=int,
                           help="two factor indices into the computed chief series")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        L, name = _load_algebra(args)
        return _dispatch(args, L, name)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificationFailure as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT
    except Exception as exc:
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CERT


def _dispatch(args, L: LieAlgebra, name: Optional[str]) -> int:
    cmd = args.command
    if cmd == "validate":
        _emit(args, {"schema_version": SCHEMA_VERSION, "valid": True,
                     "dim": L.dim, "field": field_to_doc(L.field)},
              f"valid Lie algebra of dimension {L.dim}")
        return EXIT_OK
    if cmd == "info":
        ds = derived_series(L)
        lcs = lower_central_series(L)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "dim": L.dim,
            "field": field_to_doc(L.field),
            "basis": list(L.basis_names),
            "solvable": is_solvable(L),
            "nilpotent": is_nilpotent(L),
            "center": space_doc(center(L)),
            "derived_dims": [d.dim for d in ds],
            "lower_central_dims": [d.dim for d in lcs],
        }
        human = (
            f"dimension {L.dim}; solvable {payload['solvable']}; nilpotent {payload['nilpotent']}; "
            f"derived dims {payload['derived_dims']}; center {space_str(L, center(L))}"
        )
        _emit(args, payload, human)
        return EXIT_OK
    if cmd in ("chief-series", "factors"):
        series = chief_series(L)
        payload = {"schema_version": SCHEMA_VERSION, **series_doc(series)}
        lines = [
            f"[{i}] dim {f.dim} "
            + ("abelian" if f.abelian else "nonabelian")
            + (", frattini" if f.frattini else "")
            + (", complemented" if f.complemented else ", complemented?" if f.complemented is None else "")
            + f": {space_str(L, f.A)} / {space_str(L, f.B)}"
            for i, f in enumerate(series.factors)
        ]
        _emit(args, payload, "\n".join(lines))
        return _strict_gate(args, series.status)
    if cmd == "crowns":
        series = chief_series(L)
        crowns = all_crowns(L, series)
        payload = {"schema_version": SCHEMA_VERSION, "crowns": crowns_doc(crowns)}
        lines = [
            f"crown C = {space_str(L, c.C)}, R = {space_str(L, c.R)}, rank {c.rank}"
            + ("" if c.status.certified else f" ({c.status})")
            for c in crowns
        ]
        _emit(args, payload, "\n".join(lines))
        return _strict_gate(args, *(c.status for c in crowns))
    if cmd == "prefrattini":
        if not is_solvable(L):
            raise InvalidInput("prefrattini subalgebras require a solvable algebra")
        P = prefrattini(L)
        _emit(args, {"schema_version": SCHEMA_VERSION, "prefrattini": space_doc(P)},
              f"prefrattini: {space_str(L, P)}")
        return _strict_gate(args, *(c.status for c in all_crowns(L)))
    if cmd == "primitive":
        w = classify_primitive(L)
        payload = {"schema_version": SCHEMA_VERSION, **primitive_doc(w)}
        human = f"{w.verdict}" + (f" ({w.reason})" if w.reason else "")
        _emit(args, payload, human)
        return _strict_gate(args, w.status)
    if cmd == "connected":
        series = chief_series(L)
        if not all(0 <= k < len(series) for k in args.selectors):
            raise UsageError(f"bad factor selectors: the series has {len(series)} factors")
        ok, witness, status = connected(*(series.factors[k] for k in args.selectors))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "connected": ok,
            "kind": witness.kind if witness else None,
            "kernel": space_doc(witness.kernel) if witness and witness.kernel else None,
            "status": str(status),
        }
        if ok and witness.kind == "type3":
            human = f"connected via N = {space_str(L, witness.kernel)}, type 3 quotient"
        elif ok:
            human = "connected (module-isomorphic)"
        elif status.certified:
            human = "not connected"
        else:
            human = f"not shown connected ({status})"
        _emit(args, payload, human)
        return _strict_gate(args, status)
    if cmd == "radical":
        rad, status = solvable_radical(L)
        _emit(args, {"schema_version": SCHEMA_VERSION, "radical": space_doc(rad),
                     "status": str(status)},
              f"radical: {space_str(L, rad)}")
        return _strict_gate(args, status)
    if cmd == "oracle-check":
        problems = oracle_check(L, _budget(args))
        payload = {"schema_version": SCHEMA_VERSION, "agree": not problems,
                   "problems": problems}
        human = "all checks agree" if not problems else "\n".join(
            f"mismatch: {p}" for p in problems
        )
        _emit(args, payload, human)
        return EXIT_OK if not problems else EXIT_CERT
    if cmd == "report":
        report = build_report(L, name)
        _emit(args, report, render_report(L, report))
        statuses = [report["chief_series"]["status"], report["primitive"]["status"],
                    report["radical"]["status"]] + [c["status"] for c in report["crowns"]]
        return _strict_gate(args, *statuses)
    raise UsageError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
