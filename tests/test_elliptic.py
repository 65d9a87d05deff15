"""Weierstrass curves: group law, principality, prime existence."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsection.divisors import EC_ORIGIN, ECAffine, FiniteP1, ProjectiveLine, QDivisor
from qsection.elliptic import (
    ECPrimeVerdict,
    WeierstrassCurve,
    ec_add,
    ec_divisor_sum,
    ec_is_principal,
    ec_multiply,
    ec_negate,
    ec_prime_exists,
)
from qsection.errors import MixedCurveError
from qsection.exact_arith import NumberField

# y^2 = x^3 - 1 over Q(theta), theta^2 + theta + 1 = 0: all three
# 2-torsion points are rational since x^3 - 1 splits.
CYCLO = NumberField((1, 1, 1))
THETA = CYCLO.gen()
E_CUBE = WeierstrassCurve(0, -1, field=CYCLO)
P1 = ECAffine(CYCLO.from_rational(F(1)), CYCLO.zero())
P2 = ECAffine(THETA, CYCLO.zero())
P3 = ECAffine(-THETA - CYCLO.one(), CYCLO.zero())

# the same curve over Q(i): (0, i) and (0, -i) are inverse 3-torsion points
GAUSS = NumberField((1, 0, 1))
I = GAUSS.gen()
E_GAUSS = WeierstrassCurve(0, -1, field=GAUSS)
Q1 = ECAffine(GAUSS.zero(), I)
Q2 = ECAffine(GAUSS.zero(), -I)

# y^2 = x^3 + 1 over Q: full torsion group is cyclic of order six
E_SIX = WeierstrassCurve(0, 1)
T = ECAffine(F(2), F(3))
SIX_TORSION = [
    EC_ORIGIN,
    T,
    ECAffine(F(0), F(1)),
    ECAffine(F(-1), F(0)),
    ECAffine(F(0), F(-1)),
    ECAffine(F(2), F(-3)),
]

# y^2 = x^3 - 2 over Q: (3, 5) has infinite order, so its multiples grow
E_TWO = WeierstrassCurve(0, -2)
R = ECAffine(F(3), F(5))

FIXTURES = [
    (E_CUBE, [EC_ORIGIN, P1, P2, P3]),
    (E_GAUSS, [EC_ORIGIN, Q1, Q2]),
    (E_SIX, SIX_TORSION),
    (E_TWO, [EC_ORIGIN, R]),
]


class TestCurve:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            WeierstrassCurve(0, 0)
        with pytest.raises(ValueError):
            WeierstrassCurve(-3, 2)

    def test_discriminant(self):
        assert E_SIX.discriminant == -432

    def test_contains(self):
        assert E_SIX.contains(T)
        assert E_SIX.contains(EC_ORIGIN)
        assert not E_SIX.contains(ECAffine(F(1), F(1)))
        assert not E_SIX.contains(FiniteP1(F(0)))

    def test_contains_number_field_points(self):
        assert E_CUBE.contains(P1)
        assert E_CUBE.contains(P2)
        assert E_CUBE.contains(P3)
        assert E_GAUSS.contains(Q1)

    def test_contains_refuses_a_point_of_an_undeclared_field(self):
        # contains lifts its argument: field arithmetic alone would evaluate
        # a Q(theta) point on a rational curve instead of refusing it
        assert not E_SIX.contains(P2)
        assert not E_GAUSS.contains(P2)

    def test_line_point_rejected(self):
        with pytest.raises(MixedCurveError):
            E_SIX.lift_point(FiniteP1(F(0)))

    def test_off_curve_point_rejected_by_add(self):
        with pytest.raises(ValueError):
            ec_add(E_SIX, T, ECAffine(F(1), F(1)))


class TestGroupLaw:
    def test_identity(self):
        assert ec_add(E_SIX, T, EC_ORIGIN) == T
        assert ec_add(E_SIX, EC_ORIGIN, T) == T

    def test_inverse(self):
        assert ec_add(E_SIX, T, ec_negate(E_SIX, T)) == EC_ORIGIN
        assert ec_negate(E_SIX, EC_ORIGIN) == EC_ORIGIN

    def test_two_torsion_chord(self):
        assert ec_add(E_CUBE, P1, P2) == P3
        assert ec_add(E_CUBE, P2, P3) == P1
        assert ec_add(E_CUBE, P1, P1) == EC_ORIGIN

    def test_three_torsion(self):
        assert ec_add(E_GAUSS, Q1, Q1) == Q2
        assert ec_multiply(E_GAUSS, 3, Q1) == EC_ORIGIN
        assert ec_add(E_GAUSS, Q1, Q2) == EC_ORIGIN

    def test_order_six_point(self):
        assert ec_multiply(E_SIX, 2, T) == ECAffine(F(0), F(1))
        assert ec_multiply(E_SIX, 3, T) == ECAffine(F(-1), F(0))
        assert ec_multiply(E_SIX, 6, T) == EC_ORIGIN
        for n in range(1, 6):
            assert ec_multiply(E_SIX, n, T) != EC_ORIGIN

    def test_negative_multiple(self):
        assert ec_multiply(E_SIX, -1, T) == ECAffine(F(2), F(-3))
        assert ec_multiply(E_SIX, -2, T) == ec_negate(
            E_SIX, ec_multiply(E_SIX, 2, T)
        )

    def test_multiples_enumerate_torsion(self):
        got = [ec_multiply(E_SIX, n, T) for n in range(6)]
        assert got == SIX_TORSION

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_multiply_is_additive(self, m, n):
        lhs = ec_multiply(E_SIX, m + n, T)
        rhs = ec_add(
            E_SIX, ec_multiply(E_SIX, m, T), ec_multiply(E_SIX, n, T)
        )
        assert lhs == rhs

    @given(
        st.sampled_from(SIX_TORSION),
        st.sampled_from(SIX_TORSION),
        st.sampled_from(SIX_TORSION),
    )
    def test_associative_and_commutative_on_torsion(self, a, b, c):
        assert ec_add(E_SIX, a, b) == ec_add(E_SIX, b, a)
        lhs = ec_add(E_SIX, ec_add(E_SIX, a, b), c)
        rhs = ec_add(E_SIX, a, ec_add(E_SIX, b, c))
        assert lhs == rhs


PUBLIC_CALLS = {
    "negate": lambda pt: ec_negate(E_SIX, pt),
    "multiply-0": lambda pt: ec_multiply(E_SIX, 0, pt),
    "multiply-2": lambda pt: ec_multiply(E_SIX, 2, pt),
    "multiply-minus-3": lambda pt: ec_multiply(E_SIX, -3, pt),
    "add": lambda pt: ec_add(E_SIX, pt, T),
}


@pytest.mark.parametrize("call", PUBLIC_CALLS.values(), ids=PUBLIC_CALLS.keys())
class TestPublicCallsCheckTheirPoints:
    def test_off_curve_point_rejected(self, call):
        with pytest.raises(ValueError, match="does not satisfy the curve equation"):
            call(ECAffine(F(1), F(1)))

    def test_line_point_rejected(self, call):
        with pytest.raises(MixedCurveError):
            call(FiniteP1(F(0)))


def checked_multiple(curve, n, pt):
    """n * pt as a chain of |n| public additions of pt or of its public
    negative, each of which checks its operands."""
    step = pt if n >= 0 else ec_negate(curve, pt)
    acc = EC_ORIGIN
    for _ in range(abs(n)):
        acc = ec_add(curve, acc, step)
    return acc


class TestGroupLawAgainstCheckedChain:
    """`ec_multiply` and `ec_divisor_sum` run the unchecked law on checked
    points; the chain of checked public additions is the reference."""

    @pytest.mark.parametrize("curve, points", FIXTURES)
    def test_multiples(self, curve, points):
        for pt in points:
            for n in range(-7, 8):
                assert ec_multiply(curve, n, pt) == checked_multiple(curve, n, pt)

    @given(st.data())
    def test_divisor_sums(self, data):
        curve, points = data.draw(st.sampled_from(FIXTURES))
        pairs = st.tuples(st.sampled_from(points), st.integers(-7, 7))
        D = QDivisor(curve, data.draw(st.lists(pairs, max_size=4)))
        expected = EC_ORIGIN
        for pt, c in D.entries:
            expected = ec_add(curve, expected, checked_multiple(curve, int(c), pt))
        assert ec_divisor_sum(D) == expected


class TestPrincipality:
    def test_divisor_sum(self):
        D = QDivisor(E_CUBE, [(P1, 1), (P2, 1), (P3, 1), (EC_ORIGIN, -3)])
        assert ec_divisor_sum(D) == EC_ORIGIN
        assert ec_is_principal(D)

    def test_three_torsion_principal(self):
        D = QDivisor(E_GAUSS, [(Q1, 1), (Q2, 1), (EC_ORIGIN, -2)])
        assert ec_is_principal(D)

    def test_point_minus_origin_not_principal(self):
        D = QDivisor(E_CUBE, [(P1, 1), (EC_ORIGIN, -1)])
        assert not ec_is_principal(D)

    def test_nonzero_degree_not_principal(self):
        assert not ec_is_principal(QDivisor(E_SIX, [(T, 1)]))

    def test_fractional_rejected(self):
        D = QDivisor(E_SIX, [(T, F(1, 2))])
        with pytest.raises(ValueError):
            ec_is_principal(D)
        with pytest.raises(ValueError):
            ec_divisor_sum(D)

    def test_line_divisor_rejected(self):
        D = QDivisor(ProjectiveLine(), [(FiniteP1(F(0)), 1)])
        with pytest.raises(MixedCurveError):
            ec_divisor_sum(D)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_sum_of_principals_is_principal(self, m, n):
        # m(T) - m(O) shifted to sum zero: (mT) - (m)O style combinations
        A = QDivisor(E_SIX, [(T, m), (EC_ORIGIN, -m)])
        B = QDivisor(E_SIX, [(ECAffine(F(0), F(1)), n), (EC_ORIGIN, -n)])
        principal_a = ec_is_principal(A)
        principal_b = ec_is_principal(B)
        if principal_a and principal_b:
            assert ec_is_principal(A + B)


class TestPrimeExists:
    def test_half_two_torsion(self):
        D = QDivisor(
            E_CUBE,
            [(P1, F(1, 2)), (P2, F(1, 2)), (P3, F(1, 2)), (EC_ORIGIN, -1)],
        )
        verdict = ec_prime_exists(D, 2)
        assert verdict == ECPrimeVerdict(
            exists=True, degree=2, point=EC_ORIGIN, reason="ok"
        )

    def test_half_three_torsion_blocked(self):
        D = QDivisor(
            E_GAUSS, [(Q1, F(1, 2)), (Q2, F(1, 2)), (EC_ORIGIN, F(-1, 2))]
        )
        verdict = ec_prime_exists(D, 2)
        assert not verdict.exists
        assert verdict.point == EC_ORIGIN
        assert verdict.reason == "in_frac_support"

    def test_single_point_degree_one(self):
        D = QDivisor(E_SIX, [(T, 1)])
        verdict = ec_prime_exists(D, 1)
        assert verdict.exists
        assert verdict.point == T

    def test_wrong_degree_not_equivalent_to_point(self):
        D = QDivisor(E_SIX, [(T, 1)])
        verdict = ec_prime_exists(D, 2)
        assert not verdict.exists
        assert verdict.point is None
        assert verdict.reason == "not_linearly_equivalent_to_point"

    def test_fractional_scale_not_equivalent_to_point(self):
        D = QDivisor(E_SIX, [(T, F(1, 2)), (EC_ORIGIN, F(2, 3))])
        assert not ec_prime_exists(D, 2).exists

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            ec_prime_exists(QDivisor(E_SIX, [(T, 1)]), 0)

    def test_line_divisor_rejected(self):
        D = QDivisor(ProjectiveLine(), [(FiniteP1(F(0)), 1)])
        with pytest.raises(MixedCurveError):
            ec_prime_exists(D, 1)

    @given(st.integers(1, 8))
    def test_exists_requires_unit_degree(self, d):
        # deg D = 1/2, so only d = 2 can put d*D in degree one
        D = QDivisor(
            E_GAUSS, [(Q1, F(1, 2)), (Q2, F(1, 2)), (EC_ORIGIN, F(-1, 2))]
        )
        verdict = ec_prime_exists(D, d)
        if d != 2:
            assert verdict.reason == "not_linearly_equivalent_to_point"
