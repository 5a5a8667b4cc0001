"""The polynomial toolbox diffed against the routines it replaced and against
brute force: Hessenberg ``charpoly`` against Leverrier's trace recurrence and
the principal-minor expansion (kept here as the literal old definitions,
with one ``Field`` call per scalar), and Rabin's irreducibility test over
GF(p) against a search for a monic divisor of degree at most n/2; the
GF(p) roots against evaluation at every element, Euclid's gcd and the
squarefree part against their defining divisibilities, the rational
roots lifted from roots mod q against the rational root test by trial
division that they replaced, and the quartic test over Q by the resolvent
cubic against the search over divisor pairs of the constant term that it
replaced."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestruct.fields import GF, QQ
from liestruct.linalg import Matrix
from liestruct.fields import canon_q
from liestruct.polys import (
    _divmod,
    _trim,
    charpoly,
    gcd,
    gf_roots,
    is_irreducible,
    rational_roots,
    squarefree_part,
)

SMALL_PRIMES = (2, 3, 5, 7)


# --- reference routines ----------------------------------------------------


def ref_leverrier(M: Matrix) -> list:
    """Leverrier's trace recurrence; needs division by 1..n."""
    F = M.field
    n = M.rows
    coeffs = [F.zero()] * n + [F.one()]
    Mk = M
    ck_list = []
    for k in range(1, n + 1):
        if k > 1:
            Mk = M.matmul(Mk.add(Matrix.identity(F, n).scale(ck_list[-1])))
        ck = F.neg(F.div(Mk.trace(), F.coerce(k)))
        ck_list.append(ck)
        coeffs[n - k] = ck
    return coeffs


def ref_det(F, a: list):
    a = [list(r) for r in a]
    n = len(a)
    det = F.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if not F.is_zero(a[i][c])), None)
        if pr is None:
            return F.zero()
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = F.neg(det)
        det = F.mul(det, a[c][c])
        inv = F.inv(a[c][c])
        for i in range(c + 1, n):
            f = F.mul(a[i][c], inv)
            if not F.is_zero(f):
                a[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[i], a[c])]
    return det


def ref_minors(M: Matrix) -> list:
    """The coefficient of t^(n-k) is (-1)^k times the sum of the k x k
    principal minors; valid in every characteristic."""
    F = M.field
    n = M.rows
    coeffs = [F.zero()] * n + [F.one()]
    for k in range(1, n + 1):
        s = F.zero()
        for rows in itertools.combinations(range(n), k):
            s = F.add(s, ref_det(F, [[M.entries[i][j] for j in rows] for i in rows]))
        sign = F.one() if k % 2 == 0 else F.neg(F.one())
        coeffs[n - k] = F.mul(sign, s)
    return coeffs


def ref_rem(p: int, a: list, b: list) -> list:
    """Remainder of a by the monic b over GF(p), by long division."""
    a = [x % p for x in a]
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
    return a[: len(b) - 1]


def ref_has_divisor(p: int, f: list) -> bool:
    """Whether the monic f has a monic divisor of degree 1..deg(f)/2."""
    n = len(f) - 1
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            if not any(ref_rem(p, f, list(tail) + [1])):
                return True
    return False


# --- strategies --------------------------------------------------------------


@st.composite
def square_matrices(draw):
    """A square matrix over Q or a small prime field, n <= 8, often sparse
    and sometimes singular by construction (a row repeated or zeroed)."""
    field = draw(st.sampled_from([QQ] + [GF(p) for p in SMALL_PRIMES]))
    n = draw(st.integers(0, 8))
    if field == QQ:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        scalar = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(0), scalar)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = list(rows[j]) if i != j else [0] * n
    return Matrix(field, rows)


def monic(p: int, degree: int):
    return st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree).map(
        lambda tail: tail + [1]
    )


# --- charpoly ----------------------------------------------------------------


@given(square_matrices())
@settings(max_examples=250, deadline=None)
def test_charpoly_matches_the_principal_minors(M):
    assert charpoly(M) == ref_minors(M)


@given(square_matrices())
@settings(max_examples=250, deadline=None)
def test_charpoly_matches_leverrier_where_it_is_defined(M):
    char = M.field.characteristic()
    if char == 0 or char > M.rows:
        assert charpoly(M) == ref_leverrier(M)


def test_charpoly_of_small_cases():
    F = GF(2)
    assert charpoly(Matrix(F, [])) == [1]
    # a nilpotent Jordan block over GF(2), where Leverrier divides by 2
    assert charpoly(Matrix(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])) == [0, 0, 0, 1]
    # the transposed companion matrix of t^3 - 2 over Q: the Hessenberg
    # reduction swaps a row to find its first pivot
    C = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [2, 0, 0]])
    assert charpoly(C) == [-2, 0, 0, 1]


# --- irreducibility over GF(p) -----------------------------------------------


@given(st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 8).flatmap(lambda d: monic(p, d)))
))
@settings(max_examples=300, deadline=None)
def test_rabin_matches_a_divisor_search(case):
    p, f = case
    verdict = is_irreducible(GF(p), f)
    assert verdict is (not ref_has_divisor(p, f))


@given(
    st.sampled_from(SMALL_PRIMES + (11, 13, 10007)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, 6).flatmap(lambda d: monic(p, d)),
            st.integers(1, 6).flatmap(lambda d: monic(p, d)),
            st.integers(1, p - 1),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_a_product_is_never_irreducible_over_gf(case):
    p, f, g, lead = case
    product = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            product[i + j] += lead * x * y
    assert is_irreducible(GF(p), product) is False


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda t: t + [1]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda t: t + [1]),
)
@settings(max_examples=150, deadline=None)
def test_a_product_is_never_irreducible_over_q(f, g):
    product = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            product[i + j] += x * y
    verdict = is_irreducible(QQ, product)
    assert verdict is not True
    if len(product) <= 5:
        assert verdict is False


def test_irreducibility_at_every_degree_over_gf():
    F = GF(2)
    assert is_irreducible(F, [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]) is True  # t^9 + t + 1
    assert is_irreducible(F, [1, 1, 1]) is True  # t^2 + t + 1
    assert is_irreducible(F, [1, 0, 1, 0, 1]) is False  # (t^2 + t + 1)^2
    # t^4 + t + 6 over GF(10007), where the old quartic search took O(p^2)
    assert is_irreducible(GF(10007), [6, 1, 0, 0, 1]) is True
    assert is_irreducible(GF(10007), [5, 1, 0, 0, 1]) is False


# --- gcd, squarefree part and roots ------------------------------------------


def product(p: int, *factors) -> list:
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = [x % p for x in prod] if p else prod
    return out


def divides(p: int, a: list, b: list) -> bool:
    return not _divmod(p, b, a)[1]


@given(
    st.sampled_from((0,) + SMALL_PRIMES + (10007,)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            *[st.integers(0, 4).flatmap(lambda d: monic(p or 5, d)) for _ in range(3)],
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_gcd_is_the_greatest_common_divisor(case):
    """gcd(c a, c b) is monic, divides both, is a multiple of the common
    factor c, and leaves coprime cofactors."""
    p, c, a, b = case
    ca, cb = product(p, c, a), product(p, c, b)
    g = gcd(p, ca, cb)
    assert g[-1] == 1
    assert divides(p, g, ca) and divides(p, g, cb) and divides(p, c, g)
    assert gcd(p, _divmod(p, ca, g)[0], _divmod(p, cb, g)[0]) == [1]


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(lambda t: t + [1]), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_squarefree_part_over_q(factors, powers):
    """f = prod g_i^(e_i): the squarefree part s divides f, has no repeated
    factor, and f divides s^deg(f)."""
    f = product(0, *[g for g, e in zip(factors, powers) for _ in range(e)])
    s = squarefree_part(f)
    assert divides(0, s, f)
    df = [i * c for i, c in enumerate(s)][1:]
    assert gcd(0, s, df) == [1]
    assert divides(0, f, product(0, *[s] * (len(f) - 1)))


@given(st.sampled_from(SMALL_PRIMES + (11, 13, 101)).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 8).flatmap(lambda d: monic(p, d)))
))
@settings(max_examples=300, deadline=None)
def test_gf_roots_are_the_zeros(case):
    p, f = case
    assert gf_roots(p, f) == [x for x in range(p) if not sum(c * x**i for i, c in enumerate(f)) % p]


@pytest.mark.parametrize(
    "p,f,roots",
    [
        (2, [0, 1, 1], [0, 1]),  # x(x + 1): p = deg f, every residue tried
        (2, [1, 1, 1], []),  # x^2 + x + 1, irreducible
        (3, [0, 2, 0, 1], [0, 1, 2]),  # x^3 - x, p = deg f
        (3, [1, 0, 0, 1], [2]),  # x^3 + 1 = (x + 1)^3
        (3, [0, 1, 1], [0, 2]),  # x(x + 1): p = deg f + 1, Cantor-Zassenhaus
        (5, [0, 4, 0, 0, 0, 1], [0, 1, 2, 3, 4]),  # x^5 - x, p = deg f
        (5, [0, 4, 0, 0, 1], [0, 1]),  # x^4 - x = x(x - 1)(x^2 + x + 1), p = deg f + 1
        (5, [2, 0, 0, 0, 1], []),  # x^4 + 2, p = deg f + 1
    ],
)
def test_gf_roots_at_the_degree_boundary(p, f, roots):
    assert gf_roots(p, f) == roots


def test_gf_roots_of_split_and_rootless_polynomials():
    # t^4 + t + 6 is irreducible over GF(10007)
    assert gf_roots(10007, [6, 1, 0, 0, 1]) == []
    assert gf_roots(10007, product(10007, [-5, 1], [-9000, 1], [0, 1], [6, 1, 0, 0, 1])) == [0, 5, 9000]
    assert gf_roots(2, [0, 1, 1]) == [0, 1]
    assert gf_roots(3, [1, 0, 1]) == []


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def old_rational_roots(p: list) -> list:
    """All rational roots of a rational polynomial, without multiplicity."""
    p = _trim([Fraction(c) for c in p])
    # clear denominators -> integer polynomial, then the rational root test
    den = math.lcm(*[c.denominator for c in p])
    ip = [int(c * den) for c in p]
    roots = set()
    while ip and ip[0] == 0:
        roots.add(0)
        ip = ip[1:]
    if not ip or len(ip) == 1:
        return sorted(roots)
    g = math.gcd(*[abs(c) for c in ip if c != 0])
    ip = [c // g for c in ip]
    for num in _divisors(ip[0]):
        for dq in _divisors(ip[-1]):
            for cand in (Fraction(num, dq), Fraction(-num, dq)):
                if sum(Fraction(c) * cand**i for i, c in enumerate(ip)) == 0:
                    roots.add(cand)
    return sorted(map(canon_q, roots))


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(
    st.lists(st.lists(small_rationals, min_size=2, max_size=4), min_size=1, max_size=3),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_the_trial_division(factors, powers):
    """Products of powers of random factors of degree 1 to 3 with small
    rational coefficients: roots, repeated roots, zero roots, rootless
    factors and zero leading coefficients.  The trial division runs up to
    the square roots of the integral end coefficients, so they are kept
    below 10^5."""
    f = product(0, *[g for g, e in zip(factors, powers) for _ in range(e)])
    ints = _trim([c * math.lcm(*[Fraction(x).denominator for x in f]) for c in f])
    assume(all(abs(c) < 10**5 for c in ints))
    assert rational_roots(f) == old_rational_roots(f)


def test_rational_roots_with_large_roots():
    """The trial division would run over the about 10^19 divisors of the
    constant term against those of 5; lifting stays under a second."""
    m, t = 2**61 - 1, 3**40
    f = product(0, [-m, 1], [t, 1], [-7, 5], [1, 0, 1])
    start = time.perf_counter()
    roots = rational_roots(f)
    assert time.perf_counter() - start < 1
    assert roots == [-t, Fraction(7, 5), m]


def test_rational_roots_of_constants():
    assert rational_roots([]) == rational_roots([0]) == rational_roots([5]) == []
    assert rational_roots([0, 0, 3]) == [0]


# --- quartics over Q -----------------------------------------------------------


def _to_monic_integer(p: list) -> list[int]:
    """Substitute t -> t/k so a monic rational polynomial gets integer
    coefficients while staying monic."""
    n = len(p) - 1
    den = math.lcm(*[Fraction(c).denominator for c in p])
    k = den
    out = [int(Fraction(p[i]) * k ** (n - i)) for i in range(n + 1)]
    return out


def _is_square(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _quartic_splits_into_quadratics(ip: list[int]) -> bool:
    # monic integer quartic t^4+a t^3+b t^2+c t+d as (t^2+pt+q)(t^2+rt+s);
    # callers strip rational roots first, so d != 0 and q s = d runs over
    # divisor pairs (Gauss: a monic integer split exists iff a rational does).
    d0, c, b, a, _ = ip
    assert d0 != 0
    qs_pairs = set()
    for q in _divisors(d0):
        for q_signed in (q, -q):
            qs_pairs.add((q_signed, d0 // q_signed))
    for q, s in qs_pairs:
        # p + r = a and p r = b - q - s force p, r as roots of t^2 - a t + m
        m = b - q - s
        root = _is_square(a * a - 4 * m)
        if root is None:
            continue
        for num in (a + root, a - root):
            if num % 2 != 0:
                continue
            pp = num // 2
            rr = a - pp
            if pp * s + q * rr == c:
                return True
    return False


def old_quartic_is_irreducible(p: list) -> bool:
    """The irreducibility of a rational quartic by the rational root test
    and the search for a split into integer quadratics."""
    if old_rational_roots(p):
        return False
    monic = [Fraction(c, p[-1]) for c in p]
    return not _quartic_splits_into_quadratics(_to_monic_integer(monic))


nonzero_rationals = small_rationals.filter(bool)
quadratics = st.tuples(small_rationals, small_rationals, nonzero_rationals).map(list)


@given(
    st.one_of(
        st.tuples(quadratics, quadratics).map(lambda gh: product(0, *gh)),
        quadratics.map(lambda g: product(0, g, g)),
        st.tuples(*[small_rationals] * 4, nonzero_rationals).map(list),
    )
)
@settings(max_examples=300, deadline=None)
def test_quartics_over_q_match_the_divisor_search(f):
    """Products of two quadratics, squares of a quadratic and random
    quartics, all with small rational coefficients and a leading
    coefficient other than 1."""
    assume(f[-1] != 1)
    assert is_irreducible(QQ, f) is old_quartic_is_irreducible(f)


def test_quartic_with_a_large_constant_term():
    """The divisor search would trial-divide up to 10^15; the resolvent
    cubic answers at once."""
    start = time.perf_counter()
    assert is_irreducible(QQ, [10**30 + 57, 0, 0, 0, 1]) is True
    assert time.perf_counter() - start < 1
    # t^4 + 4 (10^15)^4 = (t^2 + 2 10^15 t + 2 10^30)(t^2 - 2 10^15 t + 2 10^30)
    assert is_irreducible(QQ, [4 * 10**60, 0, 0, 0, 1]) is False
