"""The per-field arithmetic kernels diffed against the generic loops they
replaced: Gauss-Jordan with one ``Field`` call per scalar, the dense bracket
over the i < j table, naive matrix products and the zero-vector-then-add
linear combination.  Each reference below is that generic loop, kept here as
ground truth."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import builtin
from liestruct.fields import GF, QQ, FieldError
from liestruct.linalg import (
    Matrix,
    Subspace,
    _rref,
    invert_matrix,
    lin_comb,
    rref_solve,
    unit_vec,
)

from conftest import CORPUS_Q

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


# --- subspaces ---------------------------------------------------------------


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_extend_is_the_sum_with_one_vector(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    S = Subspace.from_vectors(F, A.cols, A.entries)
    mode = data.draw(st.sampled_from(["random", "inside", "zero"]))
    if mode == "random":
        v = tuple(F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=A.cols, max_size=A.cols)))
    elif mode == "inside" and S.dim:
        cs = [F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=S.dim, max_size=S.dim))]
        v = ref_lin_comb(F, A.cols, cs, S.basis)
    else:
        v = tuple([F.zero()] * A.cols)
    T = S.extend(v)
    want = S.sum(Subspace.from_vectors(F, A.cols, [v]))
    assert T == want and T.pivots == want.pivots
    assert (T is S) == S.contains(v)
    assert all(canonical(F, r) for r in T.basis)


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
    assert S.reduce(v) == tuple(want)
    assert canonical(F, S.reduce(v))
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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lin_comb_matches_the_loop_it_replaced(data):
    F = data.draw(fields)
    A = data.draw(matrices(F))
    cs = [F.coerce(x) for x in data.draw(st.lists(scalars(F), min_size=A.rows, max_size=A.rows))]
    got = lin_comb(F, cs, A.entries)
    assert got == ref_lin_comb(F, A.cols, cs, A.entries)
    assert canonical(F, got)


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
