"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values; a ``Field`` object supplies the
arithmetic.  Everything is exact, hashable and immutable.

* GF(p): ``int`` residues in ``[0, p)``.
* Q: one canonical form per value, an ``int`` when the value is integral and
  a ``fractions.Fraction`` with denominator > 1 otherwise, so integral
  products, sums and zero tests run on native integers.  ``canon_q`` is the
  one normalizer and ``div_q`` the one exact division; ``int / int`` never
  runs, as it would give a float.  ``Fraction(n) == n`` and
  ``hash(Fraction(n)) == hash(n)``, so equality and hashing do not depend
  on the form.
"""

from __future__ import annotations

import sys
from fractions import Fraction

Scalar = Fraction | int

# Prime moduli are capped so exhaustive finite-field enumeration stays sane.
MAX_PRIME = 1 << 16


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def canon_q(x) -> Scalar:
    """The canonical form of a rational scalar (``int`` or ``Fraction``):
    the ``int`` when it is integral, else the ``Fraction``."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def div_q(a, b) -> Scalar:
    """The canonical quotient a / b of rational scalars; b is not zero."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return canon_q(Fraction(a, b))


def _shown(x) -> str:
    """``repr(x)`` for an error message, cut to 80 characters.  An
    integer past the integer-string limit has no ``repr`` (``ValueError``),
    so such a value, or a container holding one, is shown by its type."""
    try:
        text = repr(x)
    except ValueError:
        return f"<unprintable {type(x).__name__}>"
    return text if len(text) <= 80 else text[:77] + "..."


def _fraction_from_str(s) -> Fraction:
    """``Fraction(s)`` for a string or an integer, refused when the
    numerator or the denominator it gives has more digits than the
    integer-string limit ``sys.get_int_max_str_digits()`` (0: no limit), so
    that every coefficient loaded can be printed back.  A string's decimal
    exponent is bounded by that limit before ``Fraction`` sees it, because
    ``Fraction`` expands ``"1e10000000"`` into a ten-million-digit integer."""
    limit = sys.get_int_max_str_digits()
    if isinstance(s, str) and "e" in s.lower():
        try:
            size = abs(int(s.lower().rpartition("e")[2]))
        except ValueError:  # malformed, or more digits than the limit
            size = None
        if size is None or (limit and size > limit):
            raise FieldError(f"exponent in {_shown(s)} is malformed or exceeds {limit}")
    x = Fraction(s)
    if limit and (_has_more_digits(x.numerator, limit) or _has_more_digits(x.denominator, limit)):
        raise FieldError(f"coefficient {_shown(s)} has more than {limit} digits")
    return x


def _has_more_digits(n: int, limit: int) -> bool:
    """Whether |n| has more than ``limit`` decimal digits; 10^limit has more
    than 3 * limit bits, so the power is built only for very long n."""
    return n.bit_length() > 3 * limit and abs(n) >= 10**limit


class Field:
    """Common interface for the two supported exact fields."""

    kind: str

    def zero(self) -> Scalar:
        raise NotImplementedError

    def one(self) -> Scalar:
        raise NotImplementedError

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def characteristic(self) -> int:
        raise NotImplementedError

    def scalar_to_str(self, a) -> str:
        raise NotImplementedError

    def scalar_from_str(self, s: str) -> Scalar:
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic, on
    canonical scalars (``canon_q``)."""

    kind = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return canon_q(x)
        if isinstance(x, str):
            return canon_q(_fraction_from_str(x))
        raise FieldError(f"cannot coerce {_shown(x)} into Q")

    def add(self, a, b):
        return canon_q(a + b)

    def sub(self, a, b):
        return canon_q(a - b)

    def mul(self, a, b):
        return canon_q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return div_q(1, a)

    def is_zero(self, a):
        return a == 0

    def characteristic(self):
        return 0

    def scalar_to_str(self, a):
        if type(a) is not int and type(a) is not Fraction:
            raise FieldError(f"{_shown(a)} is not a rational scalar")
        limit = sys.get_int_max_str_digits()
        if limit and (_has_more_digits(a.numerator, limit) or _has_more_digits(a.denominator, limit)):
            raise FieldError(f"a scalar with more than {limit} digits cannot be written")
        return str(a)

    def scalar_from_str(self, s):
        return canon_q(_fraction_from_str(s))

    def __eq__(self, other):
        return other is self or isinstance(other, Rationals)

    def __hash__(self):
        return hash(("field", "Q"))

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) for a prime p < 2**16; elements are residues in [0, p)."""

    kind = "GF"

    def __init__(self, p: int):
        # the bound comes first: trial division of a huge modulus never ends
        if isinstance(p, int) and p >= MAX_PRIME:
            raise FieldError(f"modulus exceeds the supported bound {MAX_PRIME}")
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus {_shown(p)} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        if isinstance(x, str):
            return self.coerce(_fraction_from_str(x))
        raise FieldError(f"cannot coerce {_shown(x)} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def characteristic(self):
        return self.p

    def elements(self):
        return range(self.p)

    def scalar_to_str(self, a):
        return str(a % self.p)

    def scalar_from_str(self, s):
        return self.coerce(_fraction_from_str(s))

    def __eq__(self, other):
        return other is self or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("field", "GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_to_doc(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    if isinstance(field, PrimeField):
        return {"kind": "GF", "p": field.p}
    raise FieldError(f"unknown field {field!r}")


def field_from_doc(doc: dict) -> Field:
    """The field a document describes; ``FieldError`` on anything else (the
    prime must be a JSON integer)."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "Q":
        return QQ
    if kind == "GF":
        p = doc.get("p")
        if type(p) is not int:
            raise FieldError(f"field modulus {_shown(p)} is not an integer")
        return GF(p)
    raise FieldError(f"unknown field document {_shown(doc)}")
