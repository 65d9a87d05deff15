"""Polynomials, rationals, and small number fields."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsection.errors import ReducibleModulusError
from qsection.exact_arith import (
    NumberField,
    Poly,
    poly_divrem,
    poly_gcd,
    poly_xgcd,
    rational,
    scalar_div,
    scalar_inverse,
    scalar_is_zero,
)

W = Poly.variable()


def poly(*coeffs):
    return Poly([F(c) if isinstance(c, int) else F(*c) for c in coeffs])


class TestRationalCoercion:
    def test_int_string_fraction(self):
        assert rational(3) == F(3)
        assert rational("2/7") == F(2, 7)
        assert rational(F(5, 4)) == F(5, 4)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rational(0.5)


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert Poly([0]).is_zero

    def test_degree_of_zero_is_marker(self):
        assert Poly.zero().degree == -1
        assert Poly.zero().degree < 0
        assert poly(4).degree == 0

    def test_arithmetic(self):
        a = poly(1, 1)      # 1 + w
        b = poly(-1, 1)     # w - 1
        assert a * b == poly(-1, 0, 1)
        assert a + b == poly(0, 2)
        assert a - a == Poly.zero()
        assert (W**3).coeffs == (F(0), F(0), F(0), F(1))

    def test_divrem_with_remainder(self):
        q, r = poly_divrem(W**3, poly(-1, 1))
        assert q == poly(1, 1, 1)
        assert r == poly(1)
        assert q * poly(-1, 1) + r == W**3

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem(W, Poly.zero())

    def test_monic_and_evaluate(self):
        p = poly(2, 0, 4)
        assert p.monic() == poly((1, 2), 0, 1)
        assert p.evaluate(F(1, 2)) == F(3)

    def test_shifted(self):
        assert poly(1, 1).shifted(2) == poly(0, 0, 1, 1)


class TestGcd:
    def test_shared_linear_factor(self):
        a = poly(-1, 0, 1)        # w^2 - 1
        b = poly(1, -2, 1)        # (w-1)^2
        assert poly_gcd(a, b) == poly(-1, 1)

    def test_with_monomial(self):
        assert poly_gcd(poly(0, -1, 0, 1), poly(0, 0, 1)) == poly(0, 1)

    def test_gcd_with_zero(self):
        assert poly_gcd(poly(0, 2), Poly.zero()) == poly(0, 1)
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(), Poly.zero())

    def test_xgcd_bezout(self):
        a, b = poly(-1, 0, 1), poly(0, 0, 1)
        g, u, v = poly_xgcd(a, b)
        assert g == Poly.one()
        assert u * a + v * b == g

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    )
    def test_gcd_divides_both(self, ca, cb):
        a, b = Poly(ca), Poly(cb)
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        assert poly_divrem(a, g)[1].is_zero
        assert poly_divrem(b, g)[1].is_zero
        assert g.leading == 1


THETA_FIELD = NumberField((1, 1, 1))     # y^2 + y + 1
GAUSS_FIELD = NumberField((1, 0, 1))     # y^2 + 1


class TestNumberField:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            NumberField((1, 2))          # not monic
        with pytest.raises(ValueError):
            NumberField((1,))            # degree 0
        with pytest.raises(ValueError):
            NumberField((1, 0, 0, 0, 0, 1))  # degree 5

    def test_power_basis_reduction(self):
        th = THETA_FIELD.gen()
        assert th * th == THETA_FIELD.element([-1, -1])
        # theta * theta^2 = theta^3 = 1
        assert th * (th * th) == 1

    def test_theta_inverse(self):
        th = THETA_FIELD.gen()
        assert th.inverse() == THETA_FIELD.element([-1, -1])
        assert th * th.inverse() == 1

    def test_gauss_inverse(self):
        i = GAUSS_FIELD.gen()
        assert i.inverse() == -i
        assert scalar_inverse(i) * i == 1

    def test_reducible_modulus_detected(self):
        K = NumberField((-1, 0, 1))      # y^2 - 1 factors
        x = K.element([1, 1])            # 1 + y shares the factor y + 1
        with pytest.raises(ReducibleModulusError):
            x.inverse()

    def test_rational_embedding_and_hash(self):
        half = GAUSS_FIELD.from_rational(F(1, 2))
        assert half == F(1, 2)
        assert hash(half) == hash(F(1, 2))
        # dict contract: rational field elements collide with Fractions
        d = {F(1, 2): "q"}
        d[half] = "nf"
        assert d == {F(1, 2): "nf"}

    def test_mixed_arithmetic(self):
        i = GAUSS_FIELD.gen()
        assert (1 + i) * (1 - i) == 2
        assert (i + F(1, 2)) - i == F(1, 2)
        assert 2 / (1 + i) == 1 - i

    def test_pow_negative(self):
        i = GAUSS_FIELD.gen()
        assert i**-1 == -i
        assert i**4 == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GAUSS_FIELD.zero().inverse()


class TestScalarHelpers:
    def test_scalar_is_zero(self):
        assert scalar_is_zero(F(0))
        assert scalar_is_zero(GAUSS_FIELD.zero())
        assert not scalar_is_zero(GAUSS_FIELD.gen())

    def test_scalar_div_mixed(self):
        assert scalar_div(F(1), F(2)) == F(1, 2)
        i = GAUSS_FIELD.gen()
        assert scalar_div(i, i) == 1


@given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_divrem_reconstructs(ca, cb):
    a, b = Poly(ca), Poly(cb)
    if b.is_zero:
        return
    q, r = poly_divrem(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree
