"""Rational functions on the line: divisors, H0 bases, principal functions."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.errors import IrrationalZerosError
from qsection.exact_arith import NumberField, Poly, poly_divrem
from qsection.p1 import (
    RationalFunctionP1,
    _divisors_of_int,
    _rational_linear_roots,
    divisor_of,
    principal_function,
    rr_basis,
)

P1 = ProjectiveLine()
W = Poly.variable()


def rf(numer, denom=(1,)):
    return RationalFunctionP1(Poly([F(c) for c in numer]), Poly([F(c) for c in denom]))


def d(entries):
    return QDivisor(P1, entries)


class TestNormalization:
    def test_reduced_and_monic_denominator(self):
        g = rf((0, 2), (0, 0, 4))          # 2w / 4w^2 = (1/2) / w
        assert g.numer == Poly([F(1, 2)])
        assert g.denom == Poly([0, 1])

    def test_zero_function(self):
        z = rf((0,))
        assert z.is_zero
        assert z.denom == Poly.one()

    def test_pow_negative_flips(self):
        g = rf((0, 1))
        assert g**-2 == rf((1,), (0, 0, 1))

    def test_ord_at_infinity(self):
        assert rf((1,), (0, 0, 1)).ord_at_infinity == 2
        assert rf((0, 0, 1)).ord_at_infinity == -2


class TestDivisorOf:
    def test_linear_times_linear_over_w(self):
        g = rf((2, -3, 1), (0, 1))         # (w-1)(w-2)/w
        assert divisor_of(g) == d(
            {FiniteP1(1): 1, FiniteP1(2): 1, FiniteP1(0): -1, P1_INFINITY: -1}
        )

    def test_monomial(self):
        assert divisor_of(rf((0, 0, 1))) == d({FiniteP1(0): 2, P1_INFINITY: -2})

    def test_constant_has_zero_divisor(self):
        assert divisor_of(rf((5,))) == d({})

    def test_rational_roots_with_multiplicity(self):
        # (2w-1)^2 (w+3) / w^4 ; infinity order 4-3 = 1
        numer = Poly([F(1), F(-4), F(4)]) * Poly([F(3), F(1)])
        g = RationalFunctionP1(numer, Poly([0, 0, 0, 0, 1]))
        assert divisor_of(g) == d(
            {FiniteP1(F(1, 2)): 2, FiniteP1(-3): 1, FiniteP1(0): -4, P1_INFINITY: 1}
        )

    def test_irrational_zeros_rejected(self):
        with pytest.raises(IrrationalZerosError):
            divisor_of(rf((-2, 0, 1)))     # w^2 - 2

    def test_number_field_coefficients_rejected(self):
        K = NumberField((1, 0, 1))
        g = RationalFunctionP1(Poly([K.gen(), K.one()]))
        with pytest.raises(IrrationalZerosError):
            divisor_of(g)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divisor_of(rf((0,)))


class TestRRBasis:
    def test_dimension_matches_degree(self):
        E = d({FiniteP1(0): 2, FiniteP1(1): 1, P1_INFINITY: -1})
        basis = rr_basis(E)
        assert len(basis) == int(E.degree()) + 1

    def test_negative_degree_empty(self):
        assert rr_basis(d({FiniteP1(0): -1})) == []

    def test_members_satisfy_div_bound(self):
        E = d({FiniteP1(0): 2, FiniteP1(3): -1, P1_INFINITY: 1})
        for g in rr_basis(E):
            total = divisor_of(g) + E
            assert total.is_effective()

    def test_mandatory_zeros_enforced(self):
        E = d({FiniteP1(0): 3, FiniteP1(1): -2})
        for g in rr_basis(E):
            # every section vanishes at 1 to order >= 2
            assert divisor_of(g).coeff(FiniteP1(F(1))) >= 2

    def test_fractional_divisor_rejected(self):
        with pytest.raises(ValueError):
            rr_basis(d({FiniteP1(0): F(1, 2)}))

    def test_echelon_over_common_denominator(self):
        from qsection.exact_arith import poly_divrem

        E = d({FiniteP1(0): 2, P1_INFINITY: 1})
        den = Poly([0, 0, 1])              # w^2 clears every pole
        degs = []
        for g in rr_basis(E):
            cofactor, rem = poly_divrem(den, g.denom)
            assert rem.is_zero
            degs.append((g.numer * cofactor).degree)
        assert degs == list(range(len(degs)))


class TestPrincipalFunction:
    def test_round_trip(self):
        A = d({FiniteP1(0): 2, FiniteP1(1): 1, P1_INFINITY: -3})
        g = principal_function(A)
        assert divisor_of(g) == A

    def test_normalization_monic_over_monic(self):
        A = d({FiniteP1(F(1, 2)): 1, FiniteP1(3): -1})
        g = principal_function(A)
        assert g.numer.leading == 1
        assert g.denom.leading == 1

    def test_rejects_nonzero_degree(self):
        with pytest.raises(ValueError):
            principal_function(d({FiniteP1(0): 1}))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            principal_function(d({FiniteP1(0): F(1, 2), P1_INFINITY: F(-1, 2)}))


def reference_linear_roots(p: Poly):
    """Root extraction by Fraction evaluation and long division: the
    implementation the integer one replaced, kept as the reference."""
    coeffs = list(p.rational_coeffs())
    roots = {}
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[F(0)] = zero_mult
    work = Poly(coeffs)
    if work.degree <= 0:
        return roots, work
    scale = 1
    for c in coeffs:
        scale = math.lcm(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    candidates = set()
    for pn in _divisors_of_int(ints[0]):
        for qn in _divisors_of_int(ints[-1]):
            candidates.add(F(pn, qn))
            candidates.add(F(-pn, qn))
    for cand in sorted(candidates):
        while work.degree > 0 and work.evaluate(cand) == 0:
            work = poly_divrem(work, Poly([-cand, F(1)]))[0]
            roots[cand] = roots.get(cand, 0) + 1
        if work.degree <= 0:
            break
    return roots, work


small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


class TestLinearRoots:
    @given(
        st.lists(small_rationals, max_size=4),
        st.lists(st.integers(-5, 5), max_size=3),
        st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 6)),
    )
    @settings(max_examples=200)
    def test_integer_trial_division_matches_fraction_reference(self, roots, rest, scale):
        # (w - r) over the drawn roots times a residual factor, scaled
        p = Poly([scale]) * (Poly([c for c in rest]) if any(rest) else Poly.one())
        for r in roots:
            p = p * Poly([-r, F(1)])
        got_roots, got_residual = _rational_linear_roots(p)
        want_roots, want_residual = reference_linear_roots(p)
        assert list(got_roots.items()) == list(want_roots.items())
        assert got_residual == want_residual
        assert repr(got_residual) == repr(want_residual)
