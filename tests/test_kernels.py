"""The per-field arithmetic kernels diffed against the generic loops they
replaced: Gauss-Jordan with one ``Field`` call per scalar, the dense GF(p)
Gauss-Jordan that rebuilt each row from its pivot column on, the Q
fraction-free loop that rebuilt each row it cleared and divided it by its
content, the dense bracket over the i < j table, naive matrix products and
the zero-vector-then-add linear combination.  Each reference below is that
loop, kept here as ground truth."""

import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin, linalg, modules, oracle
from liestruct.cli import build_report
from liestruct.fields import GF, QQ, FieldError, canon_q
from liestruct.linalg import (
    Matrix,
    QuotientMap,
    Subspace,
    _nonzeros,
    _reduce,
    _rref,
    _rref_gf,
    _rref_q,
    invert_matrix,
    lin_comb,
    mat_comb,
    nullspace,
    rref_solve,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)

from conftest import CORPUS_GF2, CORPUS_GF3, CORPUS_Q, coords, residue
from test_isomorphism import transport
from test_larger_primes import matrix_units
from test_memo import borel3_over_gf3, gl3_on_matrix_units
from test_socle import natural_module
from test_socle_sections import borel3

FIELDS = (QQ, GF(2), GF(3), GF(5))


# --- reference loops -------------------------------------------------------


def ref_rref(F, rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if not F.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_rref_gf(p, rows):
    """The GF(p) kernel before it went sparse: every entry reduced mod p up
    front, and each cleared row rebuilt from the pivot column on."""
    rows = [[x % p for x in r] for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        # rows r.. are zero left of column c, so row operations start there
        tail = rows[r][c:]
        if tail[0] != 1:
            inv = pow(tail[0], -1, p)
            tail = [x * inv % p for x in tail]
            rows[r] = rows[r][:c] + tail
        for i in range(m):
            row = rows[i]
            f = row[c]
            if f and i != r:
                rows[i] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def fraction_free_rref_q(rows):
    """The Q kernel before it went in place: every row scaled by the lcm of
    its denominators, the smallest pivot, and each cleared row rebuilt by a
    gcd-reduced cross-multiplication and divided by its content."""
    ints = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
    m = len(ints)
    n = len(ints[0]) if ints else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        # any nonzero pivot gives the same RREF; the smallest keeps the
        # cross-multipliers small
        pr = None
        for i in range(r, m):
            x = ints[i][c]
            if x and (pr is None or abs(x) < abs(ints[pr][c])):
                pr = i
        if pr is None:
            continue
        ints[r], ints[pr] = ints[pr], ints[r]
        tail = ints[r][c:]
        a = tail[0]
        for i in range(m):
            row = ints[i]
            b = row[c]
            if b and i != r:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                head = row[:c] if ag == 1 else [ag * x for x in row[:c]]
                new = head + [ag * x - bg * y for x, y in zip(row[c:], tail)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                ints[i] = new
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(ints, pivots):
        a = row[c]
        out.append(row if a == 1 else [x // a if not x % a else Fraction(x, a) for x in row])
    return out, pivots


def ref_span(F, n, vectors):
    red, pivots = ref_rref(F, [tuple(F.coerce(x) for x in v) for v in vectors])
    return Subspace(F, n, tuple(tuple(r) for r in red[: len(pivots)]), tuple(pivots))


def ref_rref_solve(A, b=None):
    F = A.field
    n = A.cols
    if b is None:
        work = [list(r) for r in A.entries]
    else:
        work = [list(r) + [bv] for r, bv in zip(A.entries, b)]
    red, pivots = ref_rref(F, work)
    pivots_a = [c for c in pivots if c < n]
    rank = len(pivots_a)
    rref_rows = [tuple(row[:n]) for row in red[:rank]]
    particular = None
    if b is not None and len(pivots_a) == len(pivots):
        x = [F.zero()] * n
        for i, c in enumerate(pivots_a):
            x[c] = red[i][n]
        particular = tuple(x)
    null_rows = []
    for fc in (c for c in range(n) if c not in pivots_a):
        v = [F.zero()] * n
        v[fc] = F.one()
        for i, pc in enumerate(pivots_a):
            v[pc] = F.neg(rref_rows[i][fc])
        null_rows.append(tuple(v))
    return rref_rows, rank, particular, ref_span(F, n, null_rows)


def ref_invert(M):
    F = M.field
    n = M.rows
    aug = [list(r) + list(unit_vec(F, n, i)) for i, r in enumerate(M.entries)]
    red, pivots = ref_rref(F, aug)
    if pivots != list(range(n)):
        return None
    return [tuple(row[n:]) for row in red[:n]]


def ref_bracket(L, u, v):
    F = L.field
    out = [F.zero()] * L.dim
    for (i, j), w in L.table.items():
        c = F.sub(F.mul(u[i], v[j]), F.mul(u[j], v[i]))
        if not F.is_zero(c):
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, w)]
    return tuple(out)


def ref_lin_comb(F, n, coeffs, vecs):
    w = [F.zero()] * n
    for c, b in zip(coeffs, vecs):
        w = [F.add(x, F.mul(c, y)) for x, y in zip(w, b)]
    return tuple(w)


def ref_apply(M, v):
    F = M.field
    out = []
    for r in M.entries:
        s = F.zero()
        for a, b in zip(r, v):
            s = F.add(s, F.mul(a, b))
        out.append(s)
    return tuple(out)


def ref_matmul(A, B):
    return [ref_apply(A, B.col(j)) for j in range(B.cols)]


def canonical(F, v):
    """Scalars as the library stores them: over Q an int when integral and a
    Fraction with denominator > 1 otherwise, residues in [0, p) over GF(p)."""
    if F == QQ:
        return all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in v)
    return all(type(x) is int and 0 <= x < F.p for x in v)


# --- strategies ------------------------------------------------------------


def scalars(F):
    if F == QQ:
        small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
        large = st.builds(
            Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**24)
        )
        return st.one_of(st.just(Fraction(0)), small, large)
    return st.integers(-2 * F.p, 2 * F.p)


@st.composite
def matrices(draw, F, rows=None, cols=None):
    """Wide, tall and square matrices; some rank-deficient (a product of a
    thin and a flat factor), and unless the row count is fixed, some with
    zero rows and combinations of other rows appended, in shuffled order."""
    m = rows if rows is not None else draw(st.integers(1, 6))
    n = cols if cols is not None else draw(st.integers(1, 7))

    def block(r, c):
        lists = st.lists(st.lists(scalars(F), min_size=c, max_size=c), min_size=r, max_size=r)
        return [[F.coerce(x) for x in row] for row in draw(lists)]

    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        left, right = block(m, k), block(k, n)
        entries = [list(ref_lin_comb(F, n, row, right)) for row in left]
    else:
        entries = block(m, n)
    if rows is None:
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                entries.append([F.zero()] * n)
            else:
                a, b = block(1, 2)[0]
                i = draw(st.integers(0, len(entries) - 1))
                j = draw(st.integers(0, len(entries) - 1))
                entries.append(ref_lin_comb(F, n, (a, b), (entries[i], entries[j])))
        entries = draw(st.permutations(entries))
    return Matrix(F, entries)


@st.composite
def gf_systems(draw):
    """``(p, rows)``: tuples of residues over GF(2), GF(3), GF(5) or GF(7).
    Tall and sparse as equations written from sparse action matrices are
    (up to 300 x 64, a few nonzeros a row), square or wide; with zero rows and
    repeated rows, and in some a block of full rank min(m, n).  The shape
    and its features are drawn, the entries come from a drawn seed, which
    keeps a 300-row system within Hypothesis' data budget."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    shape = draw(st.sampled_from(("tall", "square", "wide")))
    if shape == "tall":
        n = draw(st.integers(1, 64))
        m = draw(st.integers(n, 300))
    elif shape == "square":
        n = m = draw(st.integers(1, 24))
    else:
        m = draw(st.integers(1, 24))
        n = draw(st.integers(m, 64))
    per_row = draw(st.integers(1, 4 if shape == "tall" else n))
    zeros, repeats = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    full = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(m):
        row = [0] * n
        for j in rng.sample(range(n), min(per_row, n)):
            row[j] = rng.randrange(1, p)
        rows.append(row)
    if full:
        # k rows with distinct leading columns are independent: rank min(m, n)
        k = min(m, n)
        for i, c in enumerate(sorted(rng.sample(range(n), k))):
            rows[i] = [0] * c + [rng.randrange(1, p)] + rows[i][c + 1 :]
    for _ in range(zeros):
        rows.append([0] * n)
    for _ in range(repeats):
        rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    return p, [tuple(r) for r in rows]


@st.composite
def q_systems(draw):
    """Rows of ``canon_q`` values: integer systems with entries below 10 or
    up to 10^40, Fraction-heavy ones, tall sparse ones shaped like
    equations from sparse action matrices (up to 300 x 64, a few nonzeros a
    row) and wide ones; with zero rows and repeated rows (also scaled by an
    integer).  The shape and its features are drawn, the entries come from a
    drawn seed, as in ``gf_systems``."""
    kind = draw(st.sampled_from(("small", "huge", "fractions", "tall", "wide")))
    if kind == "tall":
        n = draw(st.integers(1, 64))
        m = draw(st.integers(n, 300))
    elif kind == "wide":
        m = draw(st.integers(1, 16))
        n = draw(st.integers(m, 64))
    else:
        m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    per_row = draw(st.integers(1, 4 if kind == "tall" else n))
    zeros, repeats = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        if kind == "huge":
            return rng.randint(-(10**40), 10**40)
        if kind == "fractions":
            return canon_q(Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
        return rng.choice((-1, 1)) * rng.randint(1, 9)

    rows = []
    for _ in range(m):
        row = [0] * n
        for j in rng.sample(range(n), min(per_row, n)):
            row[j] = entry()
        rows.append(row)
    for _ in range(zeros):
        rows.append([0] * n)
    for _ in range(repeats):
        c = rng.choice((1, -1, 2, 3))
        rows.append([canon_q(c * x) for x in rng.choice(rows)])
    rng.shuffle(rows)
    return [tuple(r) for r in rows]


@st.composite
def integral_rref_systems(draw):
    """``(rows, R)``: integer rows whose reduced echelon form R is integral
    although their pivots are not units.  R has integer entries off its
    pivots; the rows are integer combinations of R's rows by an invertible
    matrix, each scaled by a nonzero integer, with combinations of them and
    zero rows appended."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    pivots = sorted(rng.sample(range(n), k))
    R = []
    for i, c in enumerate(pivots):
        row = [0] * n
        row[c] = 1
        for j in range(c + 1, n):
            if j not in pivots:
                row[j] = rng.randint(-9, 9)
        R.append(row)
    rows = [list(r) for r in R]
    for _ in range(3 * k):  # row operations keep the row space
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i != j:
            f = rng.randint(-3, 3)
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    for i, c in enumerate(rng.choice((2, 3, -4, 6)) for _ in range(k)):
        rows[i] = [c * x for x in rows[i]]
    for _ in range(draw(st.integers(0, 3))):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        rows.append([a * x + b * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    rng.shuffle(rows)
    return [tuple(r) for r in rows], R


fields = st.sampled_from(FIELDS)


# --- elimination -------------------------------------------------------------


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rref_matches_the_generic_loop(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    red, pivots = _rref(F, A.entries)
    want, want_pivots = ref_rref(F, A.entries)
    assert pivots == want_pivots
    assert [list(r) for r in red] == want[: len(pivots)]
    assert all(not any(r) for r in want[len(pivots) :])
    assert all(canonical(F, r) for r in red)


@given(gf_systems())
@settings(max_examples=200, deadline=None)
def test_gf_rref_matches_the_dense_kernel(system):
    """Same ``(rows, pivots)`` as the dense kernel, as new lists; the
    caller's rows, as tuples or as lists, are left as they were."""
    p, rows = system
    before = list(rows)
    got = _rref_gf(p, rows)
    assert rows == before
    assert got == dense_rref_gf(p, rows)
    lists = [list(r) for r in rows]
    assert _rref_gf(p, lists) == got
    assert lists == [list(r) for r in before]
    assert not any(r is q for r in got[0] for q in lists)


def test_every_gf_elimination_gets_canonical_rows(monkeypatch):
    """The GF(p) kernel copies its rows without reducing them: every call
    made by the report and the oracle, on the GF(2) and GF(3) corpora and on
    borel3, n4 and gl3 over GF(3), passes residues in [0, p).  The calls are
    counted by the function making them (through ``_rref`` or directly), so
    the check is seen to reach every call site of the library."""
    sites = Counter()
    rref_code = linalg._rref.__code__

    def checked(p, rows):
        assert all(type(x) is int and 0 <= x < p for r in rows for x in r), (p, rows)
        frame = sys._getframe(1)
        if frame.f_code is rref_code:
            frame = frame.f_back
        sites[frame.f_code.co_qualname] += 1
        return _rref_gf(p, rows)

    monkeypatch.setattr(linalg, "_rref_gf", checked)
    monkeypatch.setattr(modules, "_rref_gf", checked)
    oracle._enum_structures_cached.cache_clear()
    cases = [(name, lambda name=name: builtin(name, GF(2))) for name in CORPUS_GF2]
    cases += [(name, lambda name=name: builtin(name, GF(3))) for name in CORPUS_GF3]
    cases += [
        ("borel3", borel3_over_gf3),
        ("n4", lambda: matrix_units(3, 4, strict=True)),
        ("gl3", lambda: gl3_on_matrix_units(3)),
    ]
    for name, build in cases:
        L = build()
        build_report(L, name)
        if name == "gl3":  # dimension 9 is past the oracle's enumeration budget
            with pytest.raises(oracle.BudgetExceeded):
                oracle.oracle_check(L)
        else:
            assert oracle.oracle_check(L) == []
    assert set(sites) == {
        "Subspace._of",
        "Subspace.intersect",
        "rref_solve",
        "invert_matrix",
        "ModuleMap.is_isomorphism",
        "_hom_basis",
        "_least_singular",
        "nullspace",
    }


@given(q_systems())
@settings(max_examples=200, deadline=None)
def test_q_rref_matches_the_fraction_free_kernel(rows):
    """Same ``(rows, pivots)`` and the same type of every scalar as the
    fraction-free loop it replaced, as new lists; the caller's rows, as
    tuples or as lists, are left as they were."""
    before = list(rows)
    got = _rref_q(rows)
    want = fraction_free_rref_q(rows)
    assert rows == before
    assert got == want
    assert [list(map(type, r)) for r in got[0]] == [list(map(type, r)) for r in want[0]]
    assert all(canonical(QQ, r) for r in got[0])
    lists = [list(r) for r in rows]
    assert _rref_q(lists) == got
    assert lists == [list(r) for r in before]
    assert not any(r is q for r in got[0] for q in lists)


@given(integral_rref_systems())
@settings(max_examples=200, deadline=None)
def test_q_rref_builds_no_fraction_on_integral_systems(system):
    """The Q kernel is fraction-free: on integer rows whose reduced echelon
    form is integral it builds no ``Fraction``, whatever its pivots, so a
    kernel that divides rows by their pivots as it goes fails here."""
    rows, R = system

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "Fraction", no_fraction)
        m.setattr("liestruct.fields.Fraction", no_fraction)
        red, pivots = _rref_q(rows)
    assert red == R
    assert pivots == [r.index(1) for r in R]


def test_every_q_elimination_gets_canonical_rows(monkeypatch):
    """Every Q elimination and row reduction made by the report, on the Q
    corpus, borel3, n4 and a corpus algebra in a half-integer basis, gets
    rows of ``canon_q`` values and returns canonical rows.  ``_reduce``, in
    the spin loop, may be handed an unreduced vector; its semi-echelon rows
    and its result are canonical.  ``QuotientMap.project_all`` may be
    handed unreduced sums (``LieAlgebra._bracket_sum``) and returns
    canonical coordinates.  The eliminations are counted by the function
    asking for them (through ``_rref`` and ``rref_solve``), so the check is
    seen to reach the systems that the splitting test, the crown
    denominators and the Killing radical build."""
    calls = Counter()
    skip = {linalg._rref.__code__, linalg.rref_solve.__code__, linalg.nullspace.__code__}

    def checked_rref(rows):
        assert all(canonical(QQ, r) for r in rows), rows
        red, pivots = _rref_q(rows)
        assert all(canonical(QQ, r) for r in red), red
        frame = sys._getframe(1)
        while frame.f_code in skip:
            frame = frame.f_back
        calls[frame.f_code.co_qualname] += 1
        return red, pivots

    def checked_reduce(p, w, rows, pivots):
        out = _reduce(p, w, rows, pivots)
        if not p:
            assert all(canonical(QQ, [y for _, y in nz]) for nz in rows), rows
            assert canonical(QQ, out), out
            calls["_reduce"] += 1
        return out

    project_all = QuotientMap.project_all

    def checked_project_all(qm, vectors):
        out = project_all(qm, vectors)
        if qm.field == QQ:
            assert all(canonical(QQ, c) for c in out), out
            calls["project_all"] += 1
        return out

    monkeypatch.setattr(linalg, "_rref_q", checked_rref)
    monkeypatch.setattr(QuotientMap, "project_all", checked_project_all)
    for namespace in (linalg, modules):
        monkeypatch.setattr(namespace, "_reduce", checked_reduce)
    half = Fraction(1, 2)
    L = builtin("h3_plus_r2", QQ)
    g = Matrix(QQ, [[int(i == j) or (half if j == i + 1 else 0) for j in range(5)] for i in range(5)])
    strict = [tuple(int(k == 4 * i + j) for k in range(16)) for i in range(4) for j in range(i + 1, 4)]
    cases = [(name, builtin(name, QQ)) for name in CORPUS_Q]
    cases += [
        ("borel3", borel3(0)),
        ("n4", natural_module(0, 4, strict).algebra),
        ("h3_plus_r2_rebased", transport(L, g)),
    ]
    for name, L in cases:
        build_report(L, name)
    assert calls["_reduce"] and calls["project_all"]
    assert {
        "Subspace._of",
        "split_abelian_extension",
        "denominator_intersection",
        "killing_radical",
    } <= set(calls)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_quotient_coordinates_of_the_denominator_are_in_rref(data):
    """``QuotientMap`` reads U's RREF rows at W's pivots with no
    elimination: they are the reduced echelon basis that ``Subspace._of``
    gives for the same rows, and for the coordinates of U's basis in W."""
    F = data.draw(st.sampled_from((QQ, GF(2), GF(3))))
    A = data.draw(matrices(F))
    W = Subspace.from_vectors(F, A.cols, A.entries)
    cs = data.draw(st.lists(st.lists(scalars(F), min_size=W.dim, max_size=W.dim), max_size=4))
    U = Subspace.from_vectors(
        F, A.cols, [ref_lin_comb(F, A.cols, [F.coerce(x) for x in c], W.basis) for c in cs if W.dim]
    )
    ucoords = QuotientMap(W, U)._ucoords
    for rows in (ucoords.basis, [coords(W, u) for u in U.basis]):
        want = Subspace._of(F, W.dim, list(rows))
        assert ucoords.basis == want.basis and ucoords.pivots == want.pivots


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rref_solve_matches_the_generic_loop(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    mode = data.draw(st.sampled_from(["none", "random", "consistent"]))
    if mode == "none":
        b = None
    elif mode == "random":
        b = tuple(F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=A.rows, max_size=A.rows)))
    else:
        x = tuple(F.coerce(c) for c in data.draw(st.lists(scalars(F), min_size=A.cols, max_size=A.cols)))
        b = ref_apply(A, x)
    rref, rank, particular, null = rref_solve(A, b)
    want_rows, want_rank, want_particular, want_null = ref_rref_solve(A, b)
    assert rank == want_rank
    assert rref.entries == tuple(want_rows)
    assert particular == want_particular
    assert null == want_null and null.pivots == want_null.pivots
    if mode == "consistent":
        assert particular is not None and ref_apply(A, particular) == b
    for v in null.basis:
        assert canonical(F, v) and not any(ref_apply(A, v))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_invert_matrix_matches_the_generic_loop(data):
    F = data.draw(fields)
    n = data.draw(st.integers(1, 6))
    M = data.draw(matrices(F, rows=n, cols=n))
    inv = invert_matrix(M)
    want = ref_invert(M)
    if want is None:
        assert inv is None
    else:
        assert inv.entries == tuple(want)
        assert M.matmul(inv) == Matrix.identity(F, n)


def test_rref_handles_huge_entries_and_signs():
    big = 10**40 + 7
    rows = [
        (Fraction(-big, 3), Fraction(1, big), Fraction(0)),
        (Fraction(2 * big, 3), Fraction(-2, big), Fraction(5, 7)),
        (Fraction(0), Fraction(0), Fraction(0)),
    ]
    red, pivots = _rref(QQ, rows)
    want, want_pivots = ref_rref(QQ, rows)
    assert pivots == want_pivots == [0, 2]
    assert [list(r) for r in red] == want[:2]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_nullspace_matches_the_reference_solve(data):
    """``nullspace`` is the null space of the reference loop of
    ``rref_solve``, on drawn matrices and on all-zero rows; with no rows, or
    only zero rows, or no columns, it is F^n."""
    F = data.draw(fields)
    kind = data.draw(st.sampled_from(["matrix", "zero rows", "no rows", "no columns"]))
    if kind == "matrix":
        A = data.draw(matrices(F))
        rows, n = list(A.entries), A.cols
    else:
        n = 0 if kind == "no columns" else data.draw(st.integers(0, 6))
        m = 0 if kind == "no rows" else data.draw(st.integers(1, 3))
        rows = [(F.zero(),) * n] * m
    got = nullspace(F, n, rows)
    if rows:
        want = ref_rref_solve(Matrix(F, rows))[3]
    else:
        want = ref_span(F, n, [unit_vec(F, n, i) for i in range(n)])
    assert got == want and got.pivots == want.pivots and got.ambient_dim == n
    if kind != "matrix":
        assert got == Subspace.full(F, n)
    for v in got.basis:
        assert canonical(F, v) and not any(ref_apply(Matrix(F, rows), v))


def add_scale_comb(F, coeffs, mats):
    """The loop ``bracket_law_failure`` summed its left side with: a zero
    matrix, plus ``scale(c)`` of each matrix with a nonzero coefficient."""
    out = Matrix.zero(F, mats[0].rows, mats[0].cols)
    for k, c in enumerate(coeffs):
        if c:
            out = out.add(mats[k].scale(c))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mat_comb_matches_the_add_and_scale_loop(data):
    """``mat_comb`` equals ``add_scale_comb``, also with zero coefficients,
    with fewer coefficients than matrices, and with the coefficients given
    by an iterator; over Q the coefficients are ints and Fractions."""
    F = data.draw(fields)
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
    mats = [data.draw(matrices(F, rows=m, cols=n)) for _ in range(data.draw(st.integers(1, 4)))]
    coeff = scalars(F) if F != QQ else st.one_of(st.integers(-9, 9), scalars(F))
    drawn = data.draw(st.lists(st.one_of(st.just(0), coeff), max_size=len(mats)))
    cs = [F.coerce(c) for c in drawn]
    got = mat_comb(F, iter(cs), mats)
    assert got == add_scale_comb(F, cs, mats)
    assert (got.rows, got.cols) == (mats[0].rows, mats[0].cols)
    assert all(canonical(F, r) for r in got.entries)


# --- subspaces ---------------------------------------------------------------


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_matches_the_generic_loop(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    S = Subspace.from_vectors(F, A.cols, A.entries)
    v = tuple(F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=A.cols, max_size=A.cols)))
    want = list(v)
    for row, p in zip(S.basis, S.pivots):
        c = want[p]
        if not F.is_zero(c):
            want = [F.sub(x, F.mul(c, y)) for x, y in zip(want, row)]
    assert residue(S, v) == tuple(want)
    assert canonical(F, residue(S, v))
    assert S == ref_span(F, A.cols, A.entries)


# --- products and combinations ----------------------------------------------


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matmul_and_apply_match_the_naive_products(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    B = data.draw(matrices(F, rows=A.cols))
    v = tuple(F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=A.cols, max_size=A.cols)))
    assert A.apply(v) == ref_apply(A, v)
    assert canonical(F, A.apply(v))
    AB = A.matmul(B)
    assert AB.transpose().entries == tuple(ref_matmul(A, B))
    assert AB.cols == B.cols and all(canonical(F, r) for r in AB.entries)
    assert [A.col(j) for j in range(A.cols)] == list(zip(*A.entries))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lin_comb_matches_the_loop_it_replaced(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    cs = [F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=A.rows, max_size=A.rows))]
    got = lin_comb(F, cs, A.entries)
    assert got == ref_lin_comb(F, A.cols, cs, A.entries)
    assert canonical(F, got)


# --- vectors, sections and containment ----------------------------------------


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_vector_kernels_match_the_field_operations(data):
    """``vec`` on entries as a caller passes them (any ints over GF(p),
    Fractions over Q, integral ones among them), and ``vec_add``,
    ``vec_sub``, ``vec_scale`` and ``_nonzeros``, entry by entry against
    the ``Field`` methods; every result a tuple of canonical scalars."""
    F = data.draw(fields)
    n = data.draw(st.integers(0, 7))
    raw = st.lists(scalars(F), min_size=n, max_size=n)
    xs, ys = data.draw(raw), data.draw(raw)
    u, v = vec(F, xs), vec(F, ys)
    c = F.coerce(data.draw(scalars(F)))
    assert u == tuple(F.coerce(x) for x in xs)
    for got, want in (
        (u, u),
        (vec_add(F, u, v), [F.add(a, b) for a, b in zip(u, v)]),
        (vec_sub(F, u, v), [F.sub(a, b) for a, b in zip(u, v)]),
        (vec_scale(F, c, u), [F.mul(c, a) for a in u]),
    ):
        assert type(got) is tuple and got == tuple(want) and canonical(F, got)
    assert _nonzeros(u) == tuple((j, x) for j, x in enumerate(u) if not F.is_zero(x))


def unreduced(data, F, v):
    """v with entries as ``project_all`` may get them: plus a multiple of p
    over GF(p), an integral entry as a ``Fraction`` over Q."""
    if F == QQ:
        return tuple(Fraction(x) if type(x) is int and data.draw(st.booleans()) else x for x in v)
    return tuple(x + F.p * data.draw(st.integers(-2, 2)) for x in v)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_section_coordinates_and_containment_match_the_generic_loop(data):
    """``QuotientMap.project_all`` against the generic solve of v = sum of
    c_f lift_f plus a vector of U, whose c_f are the W/U coordinates of v,
    on vectors of W with unreduced entries; a vector outside W raises
    ``ValueError``.  ``contains_space`` both ways against the span of both
    bases, on subspaces of W and on random ones."""
    F = data.draw(fields)
    A = data.draw(matrices(F))
    n = A.cols
    W = Subspace.from_vectors(F, n, A.entries)

    def inside(k):  # k random vectors of W
        lists = st.lists(st.lists(scalars(F), min_size=W.dim, max_size=W.dim), min_size=k, max_size=k)
        return [ref_lin_comb(F, n, [F.coerce(x) for x in c], W.basis) for c in data.draw(lists)]

    U = Subspace.from_vectors(F, n, inside(data.draw(st.integers(0, 3))))
    qm = QuotientMap(W, U)
    vs = inside(3)
    got = qm.project_all([unreduced(data, F, v) for v in vs])
    basis = list(qm.lifts) + list(U.basis)
    if basis:
        solve = Matrix.from_columns(F, basis)
        want = [ref_rref_solve(solve, v)[2][: qm.dim] for v in vs]
    else:
        want = [()] * len(vs)
    assert got == want and all(canonical(F, x) for x in got)
    w = tuple(F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=n, max_size=n)))
    if ref_span(F, n, list(W.basis) + [w]) != W:
        with pytest.raises(ValueError):
            qm.project_all(vs + [unreduced(data, F, w)])
    others = [[w], data.draw(matrices(F, cols=n)).entries]
    for X in [U] + [Subspace.from_vectors(F, n, rows) for rows in others]:
        assert W.contains_space(X) == (ref_span(F, n, W.basis + X.basis) == W)
        assert X.contains_space(W) == (ref_span(F, n, X.basis + W.basis) == X)


# --- the sparse bracket -------------------------------------------------------


def corpus_algebras():
    out = []
    for name in CORPUS_Q:
        for F in FIELDS:
            try:
                out.append((name, F, builtin(name, F)))
            except FieldError:
                pass  # the fixture does not exist over this field
    return out


CORPUS_ALGEBRAS = corpus_algebras()


@pytest.mark.parametrize(
    "name,F,L", CORPUS_ALGEBRAS, ids=[f"{n}-{F}" for n, F, _ in CORPUS_ALGEBRAS]
)
def test_sparse_bracket_on_basis_pairs(name, F, L):
    n = L.dim
    for i in range(n):
        for j in range(n):
            e_i, e_j = unit_vec(F, n, i), unit_vec(F, n, j)
            assert L.bracket(e_i, e_j) == ref_bracket(L, e_i, e_j) == L.basis_bracket(i, j)
            assert canonical(F, L.bracket(e_i, e_j))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_bracket_matches_the_table_formula(data):
    name, F, L = data.draw(st.sampled_from(CORPUS_ALGEBRAS))
    vectors = st.lists(scalars(F), min_size=L.dim, max_size=L.dim).map(
        lambda xs: tuple(F.coerce(x) for x in xs)
    )
    u, v = data.draw(vectors), data.draw(vectors)
    got = L.bracket(u, v)
    assert got == ref_bracket(L, u, v)
    assert canonical(F, got)
    assert L.ad(u).apply(v) == got
