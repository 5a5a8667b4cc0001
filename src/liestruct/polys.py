"""Dense univariate polynomials for the irreducibility certificates and socles.

One algorithm per task, on plain scalars like the ``linalg`` kernels
(``int`` residues over GF(p); over Q an ``int`` when integral and a
``Fraction`` otherwise, ``fields.canon_q``):

* ``charpoly``: reduction to upper Hessenberg form by similarity, then the
  recurrence on the characteristic polynomials of its leading principal
  blocks (Cohen, *A Course in Computational Algebraic Number Theory*,
  Alg. 2.2.9), O(n^3) over every field;
* ``is_irreducible`` over GF(p): Rabin's test at every degree (M. O. Rabin,
  "Probabilistic algorithms in finite fields", SIAM J. Comput. 9, 1980);
* ``rational_roots``: the roots mod a small prime q (``gf_roots``),
  lifted by Newton's iteration past twice the Cauchy bound;
* ``is_irreducible`` over Q: rational roots, then at degree 4 a split into
  rational quadratics read off a rational root of its resolvent cubic;
  None above degree 4;
* ``gcd``: Euclid's algorithm, for Rabin's test, ``squarefree_part`` over Q
  and ``gf_roots`` (the roots of gcd(x^p - x, f), split by Cantor-Zassenhaus).

Coefficient lists run from the constant term upward.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .fields import Field, _is_prime, canon_q, div_q
from .linalg import Matrix, _modulus


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def charpoly(M: Matrix) -> list:
    """Monic characteristic polynomial of a square matrix, low degree first."""
    F = M.field
    n = M.rows
    if n != M.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    p = _modulus(F)

    def red(x):
        return x % p if p else canon_q(x)

    # Hessenberg form: for each column m - 1, a nonzero pivot is moved to
    # row m and clears the rows below it; each row operation is undone on
    # the columns, so the matrix stays similar to M
    H = [list(r) for r in M.entries]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        t = H[m][m - 1]
        inv = pow(t, -1, p) if p else div_q(1, t)
        for i in range(m + 1, n):
            u = red(H[i][m - 1] * inv)
            if u:
                H[i] = [red(x - u * y) for x, y in zip(H[i], H[m])]
                for row in H:
                    row[m] = red(row[m] + u * row[i])
    # chars[m] is the characteristic polynomial of the leading m x m block
    zero, one = F.zero(), F.one()
    chars = [[one]]
    for m in range(1, n + 1):
        prev = chars[-1]
        h = H[m - 1][m - 1]
        c = [zero] + prev
        for k, x in enumerate(prev):
            c[k] -= h * x
        t = one
        for i in range(1, m):
            t = red(t * H[m - i][m - i - 1])
            if not t:
                break
            a = t * H[m - i - 1][m - 1]
            for k, x in enumerate(chars[m - i - 1]):
                c[k] -= a * x
        chars.append([red(x) for x in c])
    return chars[n]


def _divmod(p: int, a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b over GF(p), or over Q when p is 0;
    b is trimmed and not zero."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p) if p else 1 / Fraction(b[-1])
    while len(a) >= len(b):
        c = a[-1] * inv % p if p else canon_q(a[-1] * inv)
        if c:
            off = len(a) - len(b)
            q[off] = c
            for i, y in enumerate(b):
                a[off + i] = (a[off + i] - c * y) % p if p else canon_q(a[off + i] - c * y)
        a.pop()
    return _trim(q), _trim(a)


def _mulmod(p: int, a: list, b: list, f: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _divmod(p, [x % p for x in out], f)[1]


def _powmod(p: int, a: list, e: int, f: list) -> list:
    """a^e mod f over GF(p), by square-and-multiply."""
    acc = [1]
    while e:
        if e & 1:
            acc = _mulmod(p, acc, a, f)
        a = _mulmod(p, a, a, f)
        e >>= 1
    return acc


def gcd(p: int, a: list, b: list) -> list:
    """The monic greatest common divisor of a and b over GF(p), or over Q
    when p is 0, by Euclid's algorithm; [] when both are zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(p, a, b)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p) if p else 1 / Fraction(a[-1])
    return [c * inv % p if p else canon_q(c * inv) for c in a]


def squarefree_part(f: list) -> list:
    """f / gcd(f, f') for a nonzero rational polynomial f: the product of its
    distinct irreducible factors, with the leading coefficient of f."""
    return _divmod(0, f, gcd(0, f, [i * c for i, c in enumerate(f)][1:]))[0]


def gf_roots(p: int, f: list) -> list[int]:
    """The distinct roots in GF(p) of f, of positive degree, in increasing
    order: g = gcd(x^p - x, f) is split by gcd(h, (x + a)^((p - 1)/2) - 1)
    for a = 0, 1, ... into linear factors (Cantor and Zassenhaus, with the
    shifts in order so the search is deterministic); GF(2) is tried out."""
    f = gcd(p, f, [])
    if p == 2:
        return [lam for lam in (0, 1) if not sum(c * lam**i for i, c in enumerate(f)) % 2]
    xp = _powmod(p, [0, 1], p, f) + [0, 0]
    xp[1] = (xp[1] - 1) % p
    todo, roots, a = [gcd(p, f, xp)], [], 0
    while todo:
        h = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            w = _powmod(p, [a, 1], (p - 1) // 2, h) or [0]
            w[0] = (w[0] - 1) % p
            u = gcd(p, h, w)
            if 1 < len(u) < len(h):
                todo += [u, _divmod(p, h, u)[0]]
            else:
                todo.append(h)
                a += 1
    return sorted(roots)


def _gf_irreducible(p: int, f: list) -> bool:
    """Rabin's test of a monic f of degree n >= 2 over GF(p): f is
    irreducible iff f divides x^(p^n) - x and x^(p^(n/q)) - x is prime to f
    for each prime q dividing n."""
    n = len(f) - 1
    x = [0, 1]
    frob = [x]  # frob[k] = x^(p^k) mod f, each the p-th power of the last
    for _ in range(n):
        frob.append(_powmod(p, frob[-1], p, f))
    if frob[n] != x:
        return False
    for q in range(2, n + 1):
        if n % q == 0 and _is_prime(q):
            b = frob[n // q] + [0, 0]
            b[1] = (b[1] - 1) % p
            if len(gcd(p, f, b)) > 1:
                return False
    return True


def _horner(f: list, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def rational_roots(p: list) -> list:
    """All rational roots of a rational polynomial, without multiplicity,
    lifted from its roots mod a prime.  Let f be the squarefree part with
    coprime integer coefficients, of degree n and leading coefficient a;
    each rational root r gives an integer root y = a r of the monic integer
    g(y) = a^(n-1) f(y/a), and |y| is at most the Cauchy bound B = 1 + max
    |g_i|.  Take the least odd prime q at which g stays squarefree: every
    root of g mod q (``gf_roots``) is simple, so Newton's iteration lifts
    it to the one root modulo q^(2^k) > 2B above it, and the integer roots
    of g are the symmetric residues of these lifts on which g vanishes."""
    f = _trim([Fraction(c) for c in p])
    if len(f) < 2:
        return []
    f = squarefree_part(f)
    den = math.lcm(*[Fraction(c).denominator for c in f])
    ints = [int(c * den) for c in f]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    n, a = len(ints) - 1, ints[-1]
    g = [c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 1 + max(abs(c) for c in g[:-1])
    q = 3
    while not _is_prime(q) or len(gcd(q, [c % q for c in g], [c % q for c in dg])) > 1:
        q += 2
    roots = []
    for r in gf_roots(q, [c % q for c in g]):
        m = q
        while m <= 2 * bound:
            m *= m
            r = (r - _horner(g, r) * pow(_horner(dg, r), -1, m)) % m
        y = r - m if 2 * r > m else r
        if _horner(g, y) == 0:
            roots.append(Fraction(y, a))
    return sorted(map(canon_q, roots))


def _splits_into_quadratics(f: list) -> bool:
    """Whether a monic rational quartic x^4 + a x^3 + b x^2 + c x + d
    factors as (x^2 + p x + q)(x^2 + r x + s) over Q.  A split makes
    t = q + s a rational root of the resolvent cubic
    R(t) = t^3 - b t^2 + (ac - 4d) t - (a^2 d - 4bd + c^2), with q, s the
    roots of z^2 - t z + d and p, r those of z^2 - a z + b - t, so both
    discriminants t^2 - 4d = u^2 and a^2 - 4b + 4t = v^2 are squares of
    rationals (x is one when z^2 - x has a rational root).  Conversely
    these give rational p, q, r, s with p + r = a, q + s + p r = b and
    q s = d, and p s + q r = (a t -+ u v) / 2, the sign set by the pairing;
    as u^2 v^2 - (a t - 2c)^2 = 4 R(t) = 0, one of the two pairings has
    p s + q r = c."""
    d, c, b, a, _ = f
    return any(
        rational_roots([4 * d - t * t, 0, 1]) and rational_roots([4 * b - 4 * t - a * a, 0, 1])
        for t in rational_roots([4 * b * d - a * a * d - c * c, a * c - 4 * d, -b, 1])
    )


def is_irreducible(field: Field, p: list) -> Optional[bool]:
    """Exact irreducibility over the coefficient field: over GF(p) at every
    degree, over Q up to degree 4.

    Returns None over Q when the degree is beyond the implemented criteria.
    """
    char = _modulus(field)
    p = _trim([c % char for c in p] if char else [Fraction(c) for c in p])
    deg = len(p) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if char:
        inv = pow(p[-1], -1, char)
        return _gf_irreducible(char, [c * inv % char for c in p])
    if rational_roots(p):
        return False
    if deg in (2, 3):
        return True
    if deg == 4:
        return not _splits_into_quadratics([Fraction(c, p[-1]) for c in p])
    return None
