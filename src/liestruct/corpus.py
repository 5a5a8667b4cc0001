"""Built-in fixture algebras with documented expected facts, and the
structure-constant file format.

The document format stores the pairs i < j, rationals as "num/den"
strings, and the field as {"kind": "Q"} or {"kind": "GF", "p": p}; loading
takes a pair in either order and builds the table from the pairs given
(``algebra._antisymmetric_table``); saving is canonical (sorted keys,
lowest terms), so saved documents are bit-stable under round trips.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple

from .algebra import AlgebraError, LieAlgebra, _antisymmetric_table, semidirect_sum
from .fields import Field, FieldError, PrimeField, QQ, _shown, field_from_doc, field_to_doc
from .linalg import Matrix, zero_vec


class ParseError(ValueError):
    pass


# Documents are refused above this dimension before anything is allocated,
# because the analyses are desk-scale; loading itself holds only the pairs
# a document gives.
MAX_DIM = 1 << 6


class FixtureFact(namedtuple("FixtureFact", "algebra kind payload provenance")):
    """One expected structural fact about a builtin algebra.

    ``kind`` selects the replay check; ``payload`` holds coordinate data
    (vectors as coefficient lists); ``provenance`` records how the expected
    value was obtained (a hand derivation, a finite-field enumeration, or a
    published example)."""

    __slots__ = ()
    algebra: str
    kind: str
    payload: dict
    provenance: str


BUILTIN_NAMES = (
    "ab(n)",
    "r2",
    "heis",
    "ex22",
    "sl2",
    "gl2",
    "aff_sl2",
    "sl2_plus_sl2",
    "h3_plus_r2",
)


def _needs_odd_char(field: Field, name: str):
    if field.characteristic() == 2:
        raise FieldError(f"builtin {name} requires characteristic distinct from 2")


def _needs_t2_plus_1_irreducible(field: Field, name: str):
    # the two-dimensional rotation block stays irreducible exactly when
    # t^2 + 1 has no root: characteristic 0 or p = 3 mod 4
    if isinstance(field, PrimeField) and field.p % 4 != 3:
        raise FieldError(
            f"builtin {name} requires t^2+1 irreducible: rationals or p = 3 mod 4"
        )


def builtin(name: str, field: Field = QQ) -> LieAlgebra:
    """Construct a named fixture algebra over the given field."""
    m = re.fullmatch(r"ab\(?(\d+)\)?", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise AlgebraError("abelian fixture needs a positive dimension")
        if n > MAX_DIM:
            raise AlgebraError(f"dim {n} exceeds the supported bound {MAX_DIM}")
        return LieAlgebra(field, n, {}, basis_names=[f"v{i}" for i in range(n)])
    if name == "r2":
        return LieAlgebra(field, 2, {(0, 1): (0, 1)}, basis_names=("x", "y"))
    if name == "heis":
        return LieAlgebra(field, 3, {(0, 1): (0, 0, 1)}, basis_names=("x", "y", "z"))
    if name == "ex22":
        _needs_t2_plus_1_irreducible(field, name)
        return LieAlgebra(
            field,
            4,
            {
                (0, 3): (-1, 0, 0, 0),  # [a, x] = -a
                (1, 3): (0, 0, -1, 0),  # [b, x] = -c
                (2, 3): (0, 1, 0, 0),  # [c, x] = b
            },
            basis_names=("a", "b", "c", "x"),
        )
    if name == "sl2":
        _needs_odd_char(field, name)
        return _sl2(field)
    if name == "gl2":
        _needs_odd_char(field, name)
        return LieAlgebra(
            field,
            4,
            {
                (0, 1): (-2, 0, 0, 0),
                (0, 2): (0, 1, 0, 0),
                (1, 2): (0, 0, -2, 0),
            },
            basis_names=("e", "h", "f", "z"),
        )
    if name == "aff_sl2":
        _needs_odd_char(field, name)
        V2 = LieAlgebra(field, 2, {}, basis_names=("v1", "v2"))
        nat = [
            Matrix(field, [(0, 1), (0, 0)]),  # e
            Matrix(field, [(1, 0), (0, -1)]),  # h
            Matrix(field, [(0, 0), (1, 0)]),  # f
        ]
        X = semidirect_sum(V2, _sl2(field), nat)
        return LieAlgebra(
            field, 5, X.table, basis_names=("v1", "v2", "e", "h", "f")
        )
    if name == "sl2_plus_sl2":
        _needs_odd_char(field, name)
        table = {}
        for block in (0, 3):
            table[(block, block + 1)] = _emb(field, 6, block, (-2, 0, 0))
            table[(block, block + 2)] = _emb(field, 6, block, (0, 1, 0))
            table[(block + 1, block + 2)] = _emb(field, 6, block, (0, 0, -2))
        return LieAlgebra(
            field, 6, table, basis_names=("e1", "h1", "f1", "e2", "h2", "f2")
        )
    if name == "h3_plus_r2":
        return LieAlgebra(
            field,
            5,
            {(0, 1): (0, 0, 1, 0, 0), (3, 4): (0, 0, 0, 0, 1)},
            basis_names=("x", "y", "z", "u", "v"),
        )
    raise AlgebraError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")


def _sl2(field: Field) -> LieAlgebra:
    return LieAlgebra(
        field,
        3,
        {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
        basis_names=("e", "h", "f"),
    )


def _emb(field: Field, n: int, offset: int, v) -> tuple:
    out = [0] * n
    for i, x in enumerate(v):
        out[offset + i] = x
    return tuple(out)


FIXTURE_FACTS: tuple = (
    # r2 --------------------------------------------------------------
    FixtureFact("r2", "type", {"verdict": "type1", "monolith": [[0, 1]]},
                "hand derivation: y spans the unique minimal ideal, x complements"),
    FixtureFact("r2", "crown_count", {"count": 2}, "hand derivation"),
    FixtureFact("r2", "crown", {"numerator": [[0, 1]], "denominator": [], "rank": 1},
                "hand derivation"),
    FixtureFact("r2", "prefrattini", {"space": []}, "hand derivation: the two crown complements meet trivially"),
    FixtureFact("r2", "radical", {"space": [[1, 0], [0, 1]]}, "solvable algebra"),
    # heis ------------------------------------------------------------
    FixtureFact("heis", "centralizer", {"of": [[0, 0, 1]], "equals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                "hand derivation: the bracket image is central"),
    FixtureFact("heis", "centralizer", {"of": [[1, 0, 0]], "equals": [[1, 0, 0], [0, 0, 1]]},
                "hand derivation: solve the 3x3 linear system"),
    FixtureFact("heis", "type", {"verdict": "not_primitive"}, "GF(3) enumeration: all maximals contain z"),
    FixtureFact("heis", "crown_count", {"count": 1}, "hand derivation: the central factor is Frattini"),
    FixtureFact("heis", "crown",
                {"numerator": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "denominator": [[0, 0, 1]], "rank": 2},
                "hand derivation confirmed by GF(3) enumeration"),
    FixtureFact("heis", "prefrattini", {"space": [[0, 0, 1]]}, "GF(3) enumeration: equals the Frattini ideal"),
    FixtureFact("heis", "frattini_gf3", {"space": [[0, 0, 1]]}, "GF(3) enumeration of maximal subalgebras"),
    # ex22 ------------------------------------------------------------
    FixtureFact("ex22", "centralizer",
                {"of": [[1, 0, 0, 0]], "equals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]},
                "published example: both minimal ideals share this centralizer"),
    FixtureFact("ex22", "centralizer",
                {"of": [[0, 1, 0, 0], [0, 0, 1, 0]], "equals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]},
                "published example: both minimal ideals share this centralizer"),
    FixtureFact("ex22", "not_module_isomorphic", {"A1": [[1, 0, 0, 0]], "A2": [[0, 1, 0, 0], [0, 0, 1, 0]]},
                "published example: dimensions differ"),
    FixtureFact("ex22", "type", {"verdict": "not_primitive"}, "two minimal ideals, one abelian"),
    FixtureFact("ex22", "crown_count", {"count": 3}, "hand derivation"),
    FixtureFact("ex22", "crown",
                {"numerator": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                 "denominator": [[0, 1, 0, 0], [0, 0, 1, 0]], "rank": 1},
                "hand derivation: the hom space into the line is trivial"),
    FixtureFact("ex22", "crown",
                {"numerator": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                 "denominator": [[1, 0, 0, 0]], "rank": 1},
                "hand derivation: the hom space into the plane is trivial"),
    FixtureFact("ex22", "crown",
                {"numerator": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 "denominator": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "rank": 1},
                "hand derivation: top factors are complemented by their own denominator"),
    FixtureFact("ex22", "radical", {"space": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
                "solvable algebra"),
    # sl2 -------------------------------------------------------------
    FixtureFact("sl2", "type", {"verdict": "type2"}, "simple in characteristic zero"),
    FixtureFact("sl2", "radical", {"space": []}, "simple algebra"),
    # gl2 -------------------------------------------------------------
    FixtureFact("gl2", "radical", {"space": [[0, 0, 0, 1]]}, "hand derivation: the center is the radical"),
    FixtureFact("gl2", "type", {"verdict": "not_primitive"}, "two minimal ideals, one abelian"),
    # aff_sl2 ---------------------------------------------------------
    FixtureFact("aff_sl2", "type", {"verdict": "type1",
                                    "monolith": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]},
                "hand derivation: the natural module is the self-centralizing monolith"),
    FixtureFact("aff_sl2", "radical", {"space": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]},
                "hand derivation: the quotient by the natural module is simple"),
    # sl2_plus_sl2 ----------------------------------------------------
    FixtureFact("sl2_plus_sl2", "type", {"verdict": "type3"}, "published example: the diagonal is a core-free maximal"),
    FixtureFact("sl2_plus_sl2", "crown_count", {"count": 1}, "hand derivation"),
    FixtureFact("sl2_plus_sl2", "crown",
                {"numerator": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                               [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
                 "denominator": [], "rank": 2},
                "hand derivation: the two summand centralizers intersect trivially"),
    FixtureFact("sl2_plus_sl2", "radical", {"space": []}, "semisimple algebra"),
    # h3_plus_r2 ------------------------------------------------------
    FixtureFact("h3_plus_r2", "prefrattini", {"space": [[0, 0, 1, 0, 0]]},
                "GF(3) enumeration: equals the Frattini ideal of the summand"),
    FixtureFact("h3_plus_r2", "type", {"verdict": "not_primitive"}, "two minimal ideals, both abelian"),
    FixtureFact("h3_plus_r2", "radical", {"space": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                                                    [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]},
                "solvable algebra"),
    # abelian ---------------------------------------------------------
    FixtureFact("ab(1)", "type", {"verdict": "type1", "monolith": [[1]]}, "the zero subalgebra is maximal"),
    FixtureFact("ab(2)", "type", {"verdict": "not_primitive"}, "every line is a minimal ideal"),
    FixtureFact("ab(3)", "radical", {"space": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "abelian algebra"),
)


def facts_for(name: str) -> list[FixtureFact]:
    return [f for f in FIXTURE_FACTS if f.algebra == name]


# ---------------------------------------------------------------------------
# serialization


def to_doc(L: LieAlgebra) -> dict:
    F = L.field
    brackets = []
    for (i, j), v in sorted(L.table.items()):
        coeffs = {
            str(k): F.scalar_to_str(c)
            for k, c in enumerate(v)
            if not F.is_zero(c)
        }
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {
        "field": field_to_doc(F),
        "dim": L.dim,
        "basis": list(L.basis_names),
        "brackets": brackets,
    }


def save(L: LieAlgebra) -> str:
    return json.dumps(to_doc(L), sort_keys=True, indent=2) + "\n"


def _index(x, what: str, bound: int) -> int:
    """A JSON integer (not a boolean) in [0, bound), else ``ParseError``;
    a string of digits is accepted, as coefficient keys are strings, and
    converted only when no longer than the bound (``int`` refuses long ones)."""
    if isinstance(x, str) and x.isdecimal() and len(x.lstrip("0")) <= len(str(bound)):
        x = int(x)
    if type(x) is not int or not 0 <= x < bound:
        raise ParseError(f"{what} {_shown(x)} is not an integer in [0, {bound})")
    return x


def from_doc(doc: dict) -> LieAlgebra:
    """The algebra of a document; any malformed document raises
    ``ParseError``, and a table that is not antisymmetric or fails Jacobi
    raises ``AntisymmetryViolation`` or ``JacobiViolation``."""
    if not isinstance(doc, dict):
        raise ParseError("an algebra document is a JSON object")
    try:
        F = field_from_doc(doc["field"])
        dim = doc["dim"]
    except (KeyError, FieldError) as exc:
        raise ParseError(f"malformed algebra document: {exc}") from exc
    if type(dim) is not int or dim < 0:
        raise ParseError(f"dim {_shown(dim)} is not a non-negative integer")
    if dim > MAX_DIM:
        raise ParseError(f"dim {_shown(dim)} exceeds the supported bound {MAX_DIM}")
    basis = doc.get("basis") or [f"e{i}" for i in range(dim)]
    entries = doc.get("brackets", [])
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise ParseError("basis is not a list of names")
    if len(basis) != dim:
        raise ParseError("basis name count differs from dim")
    if not isinstance(entries, list):
        raise ParseError("brackets is not a list")
    pairs = {}
    for entry in entries:
        if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
            raise ParseError(f"malformed bracket entry {_shown(entry)}")
        i = _index(entry["i"], "bracket index", dim)
        j = _index(entry["j"], "bracket index", dim)
        if (i, j) in pairs:
            raise ParseError(f"bracket ({i}, {j}) is given twice")
        coeffs = entry.get("coeffs", {})
        if not isinstance(coeffs, dict):
            raise ParseError(f"coefficients of bracket ({i}, {j}) are not an object")
        v = list(zero_vec(F, dim))
        for k, s in coeffs.items():
            ki = _index(k, "coefficient index", dim)
            if not isinstance(s, (str, int)) or isinstance(s, bool):
                raise ParseError(f"bad coefficient {_shown(s)}: not a string or an integer")
            try:
                v[ki] = F.scalar_from_str(s)
            except (ValueError, FieldError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {_shown(s)}: {exc}") from exc
        pairs[i, j] = tuple(v)
    # antisymmetry and Jacobi violations are reported with their indices
    return LieAlgebra(F, dim, _antisymmetric_table(F, pairs), basis_names=basis)


def load(text: str) -> LieAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, or an integer too long
        raise ParseError(f"unreadable JSON: {exc}") from exc
    return from_doc(doc)
