"""The benchmark ladder: a fixed list of rungs, each one algebra over one
field, emitted as canonical liestruct documents.

gl(n), the upper-triangular borel(n) and the strictly upper-triangular n(n)
are built from matrix units; sums of algebras use ``liestruct.direct_sum``.
A seed above 0 permutes the basis of every rung, so structure constants and
report bytes change while every basis-invariant fact stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from liestruct import GF, QQ, LieAlgebra, builtin, direct_sum, is_nilpotent, is_solvable
from liestruct.corpus import save

BUILTINS = ("ab(3)", "r2", "heis", "ex22", "sl2", "gl2", "aff_sl2", "sl2_plus_sl2", "h3_plus_r2")


@dataclass(frozen=True)
class Rung:
    """One algebra analysed once.  A rung over its time limit counts the limit
    in wall_s and is not run again in the same benchmark run."""

    name: str
    field: str  # "q" or "gf3"
    task: str  # "report" or "oracle"
    limit_s: float = 30.0

    @property
    def key(self) -> str:
        return f"{self.task}:{self.name}@{self.field}"


def _field(name: str):
    return QQ if name == "q" else GF(int(name[2:]))


def matrix_unit_algebra(field, n: int, kind: str) -> LieAlgebra:
    """gl(n), borel(n) (i <= j) or n(n) (i < j) on the matrix units E_ij."""
    keep = {"gl": lambda i, j: True, "borel": lambda i, j: i <= j, "n": lambda i, j: i < j}[kind]
    units = [(i, j) for i in range(n) for j in range(n) if keep(i, j)]
    index = {u: k for k, u in enumerate(units)}
    d = len(units)
    table = {}
    for a, (i, j) in enumerate(units):
        for b in range(a + 1, d):
            k, l = units[b]
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            v = [0] * d
            if j == k:
                v[index[(i, l)]] += 1
            if l == i:
                v[index[(k, j)]] -= 1
            if any(v):
                table[(a, b)] = tuple(v)
    return LieAlgebra(field, d, table, basis_names=[f"E{i + 1}{j + 1}" for i, j in units])


def build(name: str, field) -> LieAlgebra:
    """The algebra a rung name denotes: a builtin, gl3/borel4/n5-style
    matrix-unit algebras, or summands joined by '+'."""
    parts = name.split("+")
    if len(parts) > 1:
        out = build(parts[0], field)
        for part in parts[1:]:
            out = direct_sum(out, build(part, field))
        return out
    for kind in ("borel", "gl", "n"):
        if name.startswith(kind) and name[len(kind):].isdigit():
            return matrix_unit_algebra(field, int(name[len(kind):]), kind)
    return builtin(name, field)


def permute_basis(L: LieAlgebra, perm: list) -> LieAlgebra:
    """L on the reordered basis e'_a = e_perm[a]."""
    n = L.dim
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = L.basis_bracket(perm[a], perm[b])
            table[(a, b)] = tuple(w[perm[k]] for k in range(n))
    return LieAlgebra(L.field, n, table, basis_names=[L.basis_names[p] for p in perm])


def document(rung: Rung, seed: int, sample: int = 0) -> str:
    """The canonical document of a rung for one sample of a workload seed."""
    L = build(rung.name, _field(rung.field))
    if seed:
        perm = list(range(L.dim))
        random.Random(f"{seed}:{sample}:{rung.name}").shuffle(perm)
        L = permute_basis(L, perm)
    return save(L)


def self_check() -> None:
    """Dimensions and solvable/nilpotent flags of the generated families."""
    for n in (2, 3):
        for kind, dim, solvable, nilpotent in (
            ("gl", n * n, False, False),
            ("borel", n * (n + 1) // 2, True, False),
            ("n", n * (n - 1) // 2, True, True),
        ):
            for field in (QQ, GF(3)):
                L = matrix_unit_algebra(field, n, kind)
                got = (L.dim, is_solvable(L), is_nilpotent(L))
                if got != (dim, solvable, nilpotent):
                    raise RuntimeError(f"{kind}({n}) over {field}: got {got}")


def _rungs(names, field: str, task: str, limit_s: float = 30.0) -> tuple:
    return tuple(Rung(n, field, task, limit_s) for n in names)


# Each ladder is sized so that a pass takes under about ten seconds at the
# commit that introduced the benchmark, leaving room for several passes a
# run.  The dim-9 GF(3) rungs take minutes there and are held to a limit far
# below that, so they count as over their limit until the module layer gets
# faster.  oracle_check takes 5-10 s on each of aff_sl2, sl2_plus_sl2,
# borel(3) and n(4) there; the oracle ladder leaves them out so that a run
# holds many short analyses rather than a few long ones, whose times on a
# shared host vary too much between runs.
WORKLOADS = {
    "report-q": _rungs(BUILTINS + ("borel3", "n4"), "q", "report"),
    "report-gf3": _rungs(BUILTINS + ("borel3", "n4"), "gf3", "report")
    + _rungs(("gl3", "sl2+sl2+sl2"), "gf3", "report", limit_s=4.0),
    "oracle-gf3": _rungs(("ab(3)", "r2", "heis", "ex22", "sl2", "gl2", "h3_plus_r2"), "gf3", "oracle"),
}
