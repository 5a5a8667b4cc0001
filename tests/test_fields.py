import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct.fields import GF, QQ, FieldError, div_q
from liestruct.linalg import vec

from test_kernels import canonical

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


class TestFieldConstruction:
    def test_prime_required(self):
        for bad in (0, 1, 4, 6, 9, 15, 2**16 + 1):
            with pytest.raises(FieldError):
                GF(bad)

    def test_modulus_bound(self):
        with pytest.raises(FieldError):
            GF(65537)  # prime, but beyond the enumeration-friendly bound
        assert GF(65521).p == 65521

    @pytest.mark.parametrize("p", [2**61 - 1, 2**127 - 1, 10**39 + 1])
    def test_a_huge_modulus_is_refused_at_once(self, p):
        """Two Mersenne primes and a 40-digit composite: the bound is checked
        before trial division, which would take about sqrt(p) / 2 steps."""
        start = time.perf_counter()
        with pytest.raises(FieldError, match="exceeds the supported bound"):
            GF(p)
        assert time.perf_counter() - start < 0.1

    def test_equality_and_hash(self):
        assert GF(3) == GF(3) and hash(GF(3)) == hash(GF(3))
        assert GF(3) != GF(5) and QQ != GF(3)


class TestRationalAxioms:
    @given(rationals, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        F = QQ
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero()

    @given(rationals)
    @settings(max_examples=60, deadline=None)
    def test_inverses(self, a):
        if a != 0:
            assert QQ.mul(a, QQ.inv(a)) == 1

    def test_lowest_terms(self):
        x = QQ.coerce(Fraction(6, -4))
        assert x.numerator == -3 and x.denominator == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
class TestPrimeFieldAxioms:
    def test_all_elements(self, p):
        F = GF(p)
        els = list(F.elements())
        for a in els:
            assert F.add(a, F.neg(a)) == 0
            if a != 0:
                assert F.mul(a, F.inv(a)) == F.one()
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))

    def test_residue_range(self, p):
        F = GF(p)
        assert F.coerce(-1) == p - 1
        assert F.coerce(p) == 0


class TestCoercion:
    def test_fraction_into_gf(self):
        assert GF(5).coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5

    def test_bad_denominator(self):
        with pytest.raises(FieldError):
            GF(5).coerce(Fraction(1, 5))

    def test_string_round_trip(self):
        for F, vals in ((QQ, ["-3/2", "0", "7"]), (GF(7), ["0", "3", "6"])):
            for s in vals:
                assert F.scalar_to_str(F.scalar_from_str(s)) == s


class TestCanonicalRationals:
    """Over Q an integral value is an int, any other a Fraction with
    denominator > 1."""

    def test_constants_and_coercion(self):
        assert type(QQ.zero()) is int and type(QQ.one()) is int
        for x, want in ((Fraction(6, 3), 2), (True, 1), ("-8/4", -2), ("2.5e1", 25), (7, 7)):
            got = QQ.coerce(x)
            assert got == want and type(got) is int
        assert QQ.coerce("3/6") == Fraction(1, 2) and type(QQ.coerce("3/6")) is Fraction
        assert type(QQ.scalar_from_str("10/5")) is int

    def test_exact_division(self):
        assert div_q(6, -3) == -2 and type(div_q(6, -3)) is int
        assert div_q(-7, 2) == Fraction(-7, 2)
        assert div_q(Fraction(3, 2), Fraction(1, 2)) == 3
        assert type(div_q(Fraction(3, 2), Fraction(1, 2))) is int
        with pytest.raises(ZeroDivisionError):
            div_q(1, 0)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    @given(rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_stays_canonical(self, a, b):
        a, b = QQ.coerce(a), QQ.coerce(b)
        assert canonical(QQ, (a, b, QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)))
        if b:
            q = QQ.div(a, b)
            assert canonical(QQ, (q,)) and q == Fraction(a) / b


class TestNoSilentFloats:
    @pytest.mark.parametrize("bad", [0.5, 2.0, float("nan"), Decimal("0.5"), "1/2", None])
    def test_scalar_to_str_refuses_anything_but_int_and_fraction(self, bad):
        with pytest.raises(FieldError):
            QQ.scalar_to_str(bad)

    def test_scalar_to_str_on_both_forms(self):
        assert QQ.scalar_to_str(3) == "3"
        assert QQ.scalar_to_str(Fraction(-3, 2)) == "-3/2"
        assert QQ.scalar_to_str(Fraction(4, 2)) == "2"

    @pytest.mark.parametrize("bad", [0.5, 2.0])
    def test_coerce_and_vec_refuse_floats(self, bad):
        with pytest.raises(FieldError):
            QQ.coerce(bad)
        with pytest.raises(FieldError):
            vec(QQ, [1, bad])
