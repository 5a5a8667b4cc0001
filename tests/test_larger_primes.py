"""Reports over GF(5), GF(7) and GF(11) whose modules have more than 10^6
vectors: the projective points of the whole module are over budget there,
and the kernel of one singular element certifies every chief factor."""

import pytest

from liestruct.algebra import LieAlgebra, direct_sum, semidirect_sum
from liestruct.cli import EXIT_OK, build_report, main
from liestruct.corpus import builtin, save
from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix


def matrix_units(p: int, n: int, strict: bool) -> LieAlgebra:
    """gl(n) (or n(n), the strictly upper-triangular part) over GF(p), or Q
    when p is 0, on the matrix units E_ij in row-major order, with
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    units = [(i, j) for i in range(n) for j in range(n) if i < j or not strict]
    index = {u: k for k, u in enumerate(units)}
    d = len(units)
    table = {}
    for a, (i, j) in enumerate(units):
        for b in range(a + 1, d):
            k, l = units[b]
            v = [0] * d
            if j == k:
                v[index[(i, l)]] += 1
            if l == i:
                v[index[(k, j)]] -= 1
            if any(v):
                table[(a, b)] = tuple(v)
    names = [f"E{i + 1}{j + 1}" for i, j in units]
    return LieAlgebra(GF(p) if p else QQ, d, table, basis_names=names)


def gl3_on_its_natural_module(p: int) -> LieAlgebra:
    """GF(p)^3 + gl(3), gl(3) acting on the abelian ideal GF(p)^3 by its
    matrices."""
    F = GF(p)
    units = [(i, j) for i in range(3) for j in range(3)]
    action = [Matrix(F, [[int((r, c) == u) for c in range(3)] for r in range(3)]) for u in units]
    return semidirect_sum(builtin("ab(3)", F), matrix_units(p, 3, False), action)


CASES = [
    ("gl3", 5, lambda: matrix_units(5, 3, False), [1, 8]),
    ("gl3", 7, lambda: matrix_units(7, 3, False), [1, 8]),
    ("gl3", 11, lambda: matrix_units(11, 3, False), [1, 8]),
    ("n4", 11, lambda: matrix_units(11, 4, True), [1] * 6),
    ("n4+ab(3)", 5, lambda: direct_sum(matrix_units(5, 4, True), builtin("ab(3)", GF(5))), [1] * 9),
    ("F^3+gl3", 5, lambda: gl3_on_its_natural_module(5), [1, 3, 8]),
]


@pytest.mark.parametrize("name,p,build,dims", CASES, ids=[f"{c[0]}-gf{c[1]}" for c in CASES])
def test_report_is_certified(name, p, build, dims, tmp_path, capsys):
    L = build()
    assert p**L.dim > 10**6
    report = build_report(L, name)
    series = report["chief_series"]
    assert series["status"] == "certified"
    assert sorted(f["dim"] for f in series["factors"]) == dims
    doc = tmp_path / "algebra.json"
    doc.write_text(save(L))
    assert main(["report", "--input", str(doc), "--strict"]) == EXIT_OK
    capsys.readouterr()
