"""Polynomials, rationals, and small number fields."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from long_division import reference_divrem
from qsection import exact_arith
from qsection.errors import ReducibleModulusError
from qsection.exact_arith import (
    NumberField,
    NumberFieldElem,
    Poly,
    poly_divrem,
    poly_gcd,
    poly_xgcd,
    pseudo_divrem,
    rational,
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
        assert (1 / i) * i == 1

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
    """Code operates on scalars through the operators that Fraction and
    NumberFieldElem both implement."""

    def test_scalar_is_zero(self):
        assert not F(0)
        assert not GAUSS_FIELD.zero()
        assert GAUSS_FIELD.gen()

    def test_scalar_div_mixed(self):
        assert F(1) / F(2) == F(1, 2)
        i = GAUSS_FIELD.gen()
        assert i / i == 1


@given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_divrem_reconstructs(ca, cb):
    a, b = Poly(ca), Poly(cb)
    if b.is_zero:
        return
    q, r = poly_divrem(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


SQRT2_FIELD = NumberField((-2, 0, 1))


@given(
    st.lists(st.integers(-9, 9), max_size=7),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda b: b[-1]),
    st.booleans(),
)
def test_pseudo_divrem_is_scaled_long_division(ca, cb, over_nf):
    # s*a = q*b + r with the quotient and remainder of long division times s;
    # over Q(sqrt 2) pairs of drawn ints become x + y*sqrt(2)
    if over_nf:
        ca = [SQRT2_FIELD.element(ca[i : i + 2]) for i in range(0, len(ca), 2)]
        cb = [SQRT2_FIELD.element(cb[i : i + 2]) for i in range(0, len(cb), 2)]
        if not cb[-1]:
            return
    q, r, s = pseudo_divrem(ca, cb)
    want_q, want_r = reference_divrem(Poly(ca), Poly(cb))
    assert s and Poly(q) == want_q.scale(s) and Poly(r) == want_r.scale(s)
    assert len(r) == min(len(ca), len(cb) - 1)
    if not over_nf:
        assert all(type(c) is int for c in (*q, *r, s))


rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def division_pairs(draw):
    """(a, b) over Q or Q(sqrt 2), b nonzero: monic or not, and at times
    longer than a."""
    scalar = rationals
    if draw(st.booleans()):
        scalar = st.builds(lambda x, y: SQRT2_FIELD.element([x, y]), rationals, rationals)
    a = draw(st.lists(scalar, max_size=6))
    b = draw(st.lists(scalar, min_size=1, max_size=8).filter(lambda b: b[-1]))
    if draw(st.booleans()):
        b[-1] = b[-1] / b[-1]
    return Poly(a), Poly(b)


@given(division_pairs())
def test_poly_divrem_matches_long_division(pair):
    # the same quotient and remainder, coefficient types included
    got, want = poly_divrem(*pair), reference_divrem(*pair)
    assert got == want
    assert repr(got) == repr(want)


def test_poly_divrem_divides_by_the_monic_divisor(monkeypatch):
    # every division goes through pseudo_divrem by a monic divisor, which
    # scales nothing; a number-field lead is inverted once, and its inverse
    # divides by the modulus over Q on the way
    calls, inverses = [], []
    real_pseudo, real_inverse = exact_arith.pseudo_divrem, NumberFieldElem.inverse

    def spy(a, b):
        out = real_pseudo(a, b)
        calls.append((b[-1], out[2]))
        return out

    def counted_inverse(self):
        inverses.append(self)
        return real_inverse(self)

    r2 = SQRT2_FIELD.gen()
    a, b = Poly([1, r2, 3, 2 * r2, 5]), Poly([r2, 1, 1 + r2])
    want = reference_divrem(a, b)
    monkeypatch.setattr(exact_arith, "pseudo_divrem", spy)
    monkeypatch.setattr(NumberFieldElem, "inverse", counted_inverse)
    assert poly_divrem(a, b) == want
    assert inverses == [1 + r2]
    assert len(calls) > 1 and set(calls) == {(1, 1)}
    calls.clear()
    a, b = poly(1, 2, 3, 4), poly(5, (2, 3))
    assert poly_divrem(a, b) == reference_divrem(a, b)
    assert calls == [(1, 1)] and inverses == [1 + r2]


def reference_coords(K: NumberField, cs) -> tuple:
    """The reduction by long division: the remainder of sum cs[i]*y^i by the
    modulus, padded to the degree of the field."""
    rem = reference_divrem(Poly(cs), Poly(K.min_poly))[1].coeffs
    return tuple(rem) + (F(0),) * (K.degree - len(rem))


def moduli():
    """Monic integer moduli of degree 1 to 4; y^2 - 1 is reducible."""
    drawn = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(lambda low: (*low, 1))
    return st.one_of(st.just((-1, 0, 1)), drawn)


class TestFold:
    """`NumberField.element` folds by the monic modulus; long division by the
    modulus is the reference."""

    @given(st.data())
    def test_element_matches_long_division(self, data):
        K = NumberField(data.draw(moduli()))
        cs = data.draw(st.lists(rationals, max_size=2 * K.degree + 1))
        coords = K.element(cs).coords
        assert coords == reference_coords(K, cs)
        assert all(type(c) is F for c in coords)

    def test_reducible_modulus_folds(self):
        K = NumberField((-1, 0, 1))      # y^2 = 1
        assert K.element([1, 2, 3, 4, 5]).coords == (F(9), F(6))
        assert K.element([1, 2, 3, 4, 5]).coords == reference_coords(K, [1, 2, 3, 4, 5])

    @given(st.data())
    def test_subtraction_adds_the_negative(self, data):
        K = NumberField(data.draw(moduli()))
        a, b = (
            K.element(data.draw(st.lists(rationals, max_size=K.degree)))
            for _ in range(2)
        )
        q = F(data.draw(rationals))
        assert (a - b).coords == (a + (-b)).coords
        assert (a - q).coords == (a + (-q)).coords
        assert (q - a).coords == (q + (-a)).coords
