"""Rational functions on the line: divisors, H0 bases, principal functions."""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.errors import IrrationalZerosError
from long_division import reference_divrem, reference_gcd, reference_lowest_terms
from qsection import exact_arith
from qsection.exact_arith import NumberField, Poly, convolve, poly_gcd, pseudo_divrem
from qsection.p1 import (
    RationalFunctionP1,
    _divisors_of_int,
    _h0_factors,
    _linear_factor,
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


SQRT2 = NumberField((-2, 0, 1))
gcd_rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def gcd_scalars(over_nf: bool):
    if over_nf:
        return st.builds(lambda x, y: SQRT2.element([x, y]), gcd_rationals, gcd_rationals)
    return gcd_rationals.map(F)


@st.composite
def common_factor_quotients(draw):
    """(numer, denom) = (a * c, b * c) over Q or Q(sqrt 2): c is a common
    factor of degree 0 to 3, nothing is monic or primitive on purpose, the
    two sides are at times scaled by a large common integer, and a may be
    zero."""
    scalar = gcd_scalars(draw(st.booleans()))
    nonzero_top = lambda v: bool(v[-1])
    c = Poly(draw(st.lists(scalar, min_size=1, max_size=4).filter(nonzero_top)))
    a = Poly(draw(st.lists(scalar, max_size=4)))
    b = Poly(draw(st.lists(scalar, min_size=1, max_size=4).filter(nonzero_top)))
    k = draw(st.sampled_from([1, 6, -(10**12) - 3]))
    return a * c * Poly([k]), b * c * Poly([k])


class TestLowestTerms:
    """The constructor reduces by the pseudo-remainder gcd loop; the Fraction
    Euclid it replaced (`tests/long_division.py`) is the reference."""

    @given(common_factor_quotients())
    @settings(max_examples=200)
    # a gcd with a negative lead, -w, must be divided out with s = 1
    @example((Poly([0, -1]), Poly([0, -1, -1])))
    def test_constructor_matches_the_euclid_reference(self, pair):
        g = RationalFunctionP1(*pair)
        numer, denom = reference_lowest_terms(*pair)
        assert (g.numer, g.denom) == (numer, denom)
        assert (repr(g.numer), repr(g.denom)) == (repr(numer), repr(denom))

    @given(common_factor_quotients())
    def test_poly_gcd_matches_the_euclid_reference(self, pair):
        a, b = pair
        for x, y in ((a, b), (a, Poly.zero()), (Poly.zero(), b)):
            if not (x.is_zero and y.is_zero):
                assert poly_gcd(x, y) == reference_gcd(x, y)

    def test_rational_construction_calls_no_poly_divrem(self):
        # the Fraction Euclid ran 57 poly_divrem calls per traced primes-mix
        # pass, all from this constructor; the int loop runs none
        calls = []

        def spy(name):
            real = getattr(exact_arith, name)

            def wrapped(*args):
                calls.append(name)
                return real(*args)

            return wrapped

        common = Poly([F(-3, 2), F(1)]) ** 2 * Poly([F(5, 7), F(0), F(2)])
        numer = common * Poly([F(4), F(-6), F(10, 3)])
        denom = common * Poly([F(1, 3), F(7)])
        want = reference_lowest_terms(numer, denom)
        with mock.patch.object(exact_arith, "poly_divrem", spy("poly_divrem")), \
                mock.patch.object(exact_arith, "poly_gcd", spy("poly_gcd")):
            g = RationalFunctionP1(numer, denom)
            h = g * RationalFunctionP1(denom, Poly([F(3), F(0), F(1)]))
            q = (g / h) ** -2
        assert calls == []
        assert (g.numer, g.denom) == want
        assert (h.numer, h.denom) == reference_lowest_terms(numer, Poly([F(3), F(0), F(1)]))
        assert (q.numer, q.denom) == reference_lowest_terms(
            h.numer**2 * g.denom**2, h.denom**2 * g.numer**2
        )


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


SQRT2_LINE = ProjectiveLine(SQRT2)


@st.composite
def factored_functions(draw):
    """(curve, g, orders): g = c * prod (w - r)^m over distinct rational roots
    r (0 among them, as w), with 1 <= |m| <= 3, on the line over Q or over
    Q(sqrt 2); orders holds the order of g at each root."""
    curve = draw(st.sampled_from([P1, SQRT2_LINE]))
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=4, unique=True))
    orders = {r: draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1])) for r in roots}
    g = RationalFunctionP1(Poly([draw(st.fractions(-5, 5).filter(bool))]))
    for r, m in orders.items():
        g = g * RationalFunctionP1(Poly([-r, F(1)])) ** m
    return curve, g, orders


class TestDivisorOfMatchesConstructor:
    """`divisor_of` builds its divisor without the constructor's checks; the
    validating constructor on the roots and their orders is the reference."""

    @given(factored_functions())
    @settings(max_examples=200)
    def test_divisor_of_equals_the_constructor(self, drawn):
        curve, g, orders = drawn
        entries = {FiniteP1(r): m for r, m in orders.items()}
        entries[P1_INFINITY] = -sum(orders.values())
        got, expected = divisor_of(g, curve), QDivisor(curve, entries)
        # a lifted coordinate equals its rational, so compare the reprs too
        assert (got, repr(got)) == (expected, repr(expected))


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
        E = d({FiniteP1(0): 2, P1_INFINITY: 1})
        den = Poly([0, 0, 1])              # w^2 clears every pole
        degs = []
        for g in rr_basis(E):
            cofactor, rem = reference_divrem(den, g.denom)
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
    coeffs = list(p.coeffs)
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
            work = reference_divrem(work, Poly([-cand, F(1)]))[0]
            roots[cand] = roots.get(cand, 0) + 1
        if work.degree <= 0:
            break
    return roots, work


small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def _iroot(x: int, e: int) -> int:
    """The largest r >= 0 with r^e <= x."""
    r = int(round(x ** (1 / e)))
    while r**e > x:
        r -= 1
    while (r + 1) ** e <= x:
        r += 1
    return r


@st.composite
def primitive_linear_products(draw):
    """c * prod (b*w - a)^e over 1-3 primitive factors (b > 0, gcd(a, b) = 1)
    with e <= 5, times w^2 + k one draw in four.  The products of the |a|^e
    and of the b^e stay at most 10^6, so |a|, b <= 10^6, and the reference,
    which does not divide out the constant c, can still list the divisors of
    the constant term and the lead by trial division."""
    budget_a = budget_b = 10**6
    p = Poly([draw(st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 30)))])
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.integers(1, 5))
        a_max, b_max = _iroot(budget_a, e), _iroot(budget_b, e)
        a, b = draw(st.integers(-a_max, a_max)), draw(st.integers(1, b_max))
        g = math.gcd(a, b)
        a, b = a // g, b // g
        budget_a //= max(abs(a), 1) ** e
        budget_b //= b**e
        p = p * Poly([-a, b]) ** e
    if not draw(st.integers(0, 3)):
        p = p * Poly([draw(st.integers(1, 5)), 0, 1])
    return p


class TestLinearRoots:
    @given(
        st.lists(small_rationals, max_size=4),
        st.lists(st.integers(-5, 5), max_size=3),
        st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 6)),
    )
    @settings(max_examples=200)
    # degree one after the roots at zero are peeled: the root is read off
    @example(roots=[F(3, 2)], rest=[], scale=F(-5, 3))
    @example(roots=[F(0), F(0), F(-7, 4)], rest=[], scale=F(2, 7))
    @example(roots=[], rest=[0, 3, -4], scale=F(1, 6))
    @example(roots=[F(1000003, 999983)], rest=[], scale=F(1))
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

    @given(primitive_linear_products())
    @settings(max_examples=100)
    def test_exact_division_by_primitive_factors(self, p):
        # each confirmed root p/q is divided out of the primitive integer form
        # by q*w - p with no scaling (Gauss's lemma)
        divisions = []

        def spy(a, b):
            out = pseudo_divrem(a, b)
            divisions.append((len(b), out[2]))
            return out

        with mock.patch("qsection.p1.pseudo_divrem", spy):
            got_roots, got_residual = _rational_linear_roots(p)
        want_roots, want_residual = reference_linear_roots(p)
        assert list(got_roots.items()) == list(want_roots.items())
        assert got_residual == want_residual
        assert repr(got_residual) == repr(want_residual)
        # a linear primitive form gives its root with no division
        linear = p.degree - got_roots.get(F(0), 0) == 1
        assert divisions == ([] if linear else [(2, 1)] * sum(m for r, m in got_roots.items() if r))


def reference_h0_factors(exponents):
    """(den, mand) by the one-factor loop the binomial powers replaced:
    (w - x)^e as e convolutions by the linear factor."""
    den, den_b, mand, mand_b = [1], 1, [1], 1
    for (factor, b), e in exponents:
        for _ in range(e):
            den, den_b = convolve(den, factor), den_b * b
        for _ in range(-e):
            mand, mand_b = convolve(mand, factor), mand_b * b
    return (den, den_b), (mand, mand_b)


Q_SQRT2 = NumberField((-2, 0, 1))


@st.composite
def linear_factor_powers(draw):
    """((factor, b), e) of `_linear_factor` at 1-3 distinct points, with
    |e| <= 40: rational points, or, one draw in three, points x + y*sqrt(2)
    of Q(sqrt 2), of which at most two keep the reference loop short."""
    if draw(st.integers(0, 2)):
        xs = draw(st.lists(small_rationals, min_size=1, max_size=3, unique=True))
    else:
        pairs = draw(st.lists(st.tuples(small_rationals, small_rationals),
                              min_size=1, max_size=2, unique=True))
        xs = [Q_SQRT2.element(pair) for pair in pairs]
    return [(_linear_factor(x), draw(st.integers(-40, 40))) for x in xs]


class TestH0Factors:
    @given(linear_factor_powers())
    @settings(max_examples=100)
    def test_binomial_powers_match_the_one_factor_loop(self, exponents):
        assert _h0_factors(exponents) == reference_h0_factors(exponents)

    def test_powers_of_one_point(self):
        # (2w - 3)^3 = 8w^3 - 36w^2 + 54w - 27, over 2^3
        factor = _linear_factor(F(3, 2))
        assert _h0_factors([(factor, 3)]) == (([-27, 54, -36, 8], 8), ([1], 1))
        assert _h0_factors([(factor, -1)]) == (([1], 1), ([-3, 2], 2))
