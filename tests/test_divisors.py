"""Q-divisors: construction, floor, scaling, support, canonical order."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsection.divisors import (
    EC_ORIGIN,
    P1_INFINITY,
    FiniteP1,
    ProjectiveLine,
    QDivisor,
    point_sort_key,
)
from qsection.errors import MixedCurveError
from qsection.exact_arith import NumberField
from qsection.jsonio import parse_divisor, serialize_point, serialize_rational
import test_elliptic as ec

P1 = ProjectiveLine()


def d(entries):
    return QDivisor(P1, entries)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        D = d({FiniteP1(0): F(0), FiniteP1(1): F(1, 2)})
        assert D.points() == (FiniteP1(F(1)),)

    def test_canonical_order(self):
        D = d({P1_INFINITY: 1, FiniteP1(2): 1, FiniteP1(-1): 1})
        assert [pt for pt, _ in D.entries] == [
            FiniteP1(F(-1)),
            FiniteP1(F(2)),
            P1_INFINITY,
        ]

    def test_coordinates_coerced_exactly(self):
        D = d({FiniteP1(2): F(1, 3)})
        assert D.coeff(FiniteP1(F(2))) == F(1, 3)

    def test_ec_point_rejected_on_line(self):
        with pytest.raises(MixedCurveError):
            d({EC_ORIGIN: 1})

    def test_equality_and_hash(self):
        a = d({FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2)})
        b = d({P1_INFINITY: F(1, 2), FiniteP1(0): F(1, 2)})
        assert a == b
        assert hash(a) == hash(b)

    def test_undeclared_field_coordinate_rejected(self):
        K = NumberField((1, 0, 1))
        with pytest.raises(MixedCurveError):
            d({FiniteP1(K.gen()): 1})

    def test_declared_field_lifts_rationals(self):
        K = NumberField((1, 0, 1))
        line = ProjectiveLine(K)
        D = QDivisor(line, {FiniteP1(1): 1, FiniteP1(K.gen()): 1})
        coords = [pt.coord for pt, _ in D.entries if isinstance(pt, FiniteP1)]
        assert all(c.field == K for c in coords)


class TestArithmetic:
    def test_degree(self):
        D = d({FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
        assert D.degree() == F(1, 2)

    def test_floor(self):
        D = d({FiniteP1(0): F(5, 7), P1_INFINITY: F(-4, 7)})
        E = D.scale(8).floor()
        assert E.coeff(FiniteP1(F(0))) == 5      # floor(40/7)
        assert E.coeff(P1_INFINITY) == -5        # floor(-32/7)

    def test_add_sub_neg(self):
        A = d({FiniteP1(0): 1})
        B = d({FiniteP1(0): F(-1, 2), FiniteP1(1): 1})
        assert A + B == d({FiniteP1(0): F(1, 2), FiniteP1(1): 1})
        assert A - A == d({})
        assert -B == d({FiniteP1(0): F(1, 2), FiniteP1(1): -1})

    def test_scale_by_rational(self):
        D = d({FiniteP1(0): F(2, 3)})
        assert D.scale(F(3, 2)) == d({FiniteP1(0): 1})

    def test_cross_curve_add_rejected(self):
        K = NumberField((1, 0, 1))
        other = QDivisor(ProjectiveLine(K), {FiniteP1(0): 1})
        with pytest.raises(MixedCurveError):
            d({FiniteP1(0): 1}) + other


class TestPredicates:
    def test_fractional_support(self):
        D = d({FiniteP1(0): F(1, 2), FiniteP1(1): 2, P1_INFINITY: F(-1, 3)})
        assert D.fractional_support() == frozenset({FiniteP1(F(0)), P1_INFINITY})

    def test_integral_effective(self):
        assert d({FiniteP1(0): 3, P1_INFINITY: -3}).is_integral()
        assert not d({FiniteP1(0): F(1, 2)}).is_integral()
        assert d({FiniteP1(0): F(1, 2)}).is_effective()
        assert not d({FiniteP1(0): F(-1, 2)}).is_effective()
        assert d({}).is_effective()

    def test_common_denominator_is_lcm(self):
        D = d({FiniteP1(0): F(1, 2), FiniteP1(1): F(-1, 3), P1_INFINITY: F(1, 7)})
        assert D.common_denominator() == 42
        assert d({FiniteP1(0): 2}).common_denominator() == 1

    def test_single_point(self):
        assert d({FiniteP1(4): 1}).single_point() == FiniteP1(F(4))
        assert d({FiniteP1(4): 2}).single_point() is None
        assert d({FiniteP1(4): 1, FiniteP1(5): 1}).single_point() is None
        assert d({}).single_point() is None


SQRT2 = NumberField((-2, 0, 1))
SQRT2_LINE = ProjectiveLine(SQRT2)
EC_FIXTURES = [
    (ec.E_CUBE, [EC_ORIGIN, ec.P1, ec.P2, ec.P3]),
    (ec.E_GAUSS, [EC_ORIGIN, ec.Q1, ec.Q2]),
    (ec.E_SIX, ec.SIX_TORSION),
]
coords = st.fractions(min_value=-5, max_value=5, max_denominator=4)
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def curve_points(draw, kinds=("Q", "sqrt2", "weierstrass")):
    """A curve with a few of its points: the line over Q, the line over
    Q(sqrt 2) with rational points (lifted by the constructor) and the point
    sqrt 2 + c, or a Weierstrass curve with torsion points."""
    kind = draw(st.sampled_from(kinds))
    if kind == "weierstrass":
        return draw(st.sampled_from(EC_FIXTURES))
    finite = [FiniteP1(c) for c in draw(st.lists(coords, min_size=1, max_size=4, unique=True))]
    if kind == "Q":
        return P1, finite + [P1_INFINITY]
    return SQRT2_LINE, finite + [FiniteP1(SQRT2.gen() + draw(coords)), P1_INFINITY]


def entry_lists(points):
    """(point, coefficient) lists; points may repeat and coefficients vanish."""
    return st.lists(st.tuples(st.sampled_from(points), coeffs), max_size=6)


def assert_canonical(D, curve, values):
    """D is what the validating constructor makes of the (point, value)
    pairs, and its coefficient pairs are read off its entries."""
    assert D == QDivisor(curve, values)
    assert D.coefficient_pairs == tuple((c.numerator, c.denominator) for _, c in D.entries)


class TestDerivedDivisors:
    """Divisors built from canonical ones skip the constructor's checks; the
    constructor is the reference for each of them."""

    @given(st.data())
    def test_derived_divisors_match_the_constructor(self, data):
        curve, points = data.draw(curve_points())
        D = QDivisor(curve, data.draw(entry_lists(points)))
        E = QDivisor(curve, data.draw(entry_lists(points)))
        assert_canonical(D, curve, D.entries)
        negative = data.draw(st.integers(-5, -1))
        fractional = data.draw(coeffs.filter(lambda r: r.denominator > 1))
        for r in (0, negative, fractional):
            assert_canonical(D.scale(r), curve, [(pt, c * r) for pt, c in D.entries])
        assert_canonical(-D, curve, [(pt, -c) for pt, c in D.entries])
        assert_canonical(D.floor(), curve, [(pt, math.floor(c)) for pt, c in D.entries])
        assert_canonical(D + E, curve, D.entries + E.entries)
        assert_canonical(D - E, curve, D.entries + tuple((pt, -c) for pt, c in E.entries))

    @given(st.data())
    def test_parse_divisor_matches_the_constructor(self, data):
        curve, points = data.draw(curve_points())
        chosen = data.draw(st.lists(st.sampled_from(points), unique=True, max_size=len(points)))
        entries = [(pt, data.draw(coeffs)) for pt in chosen]
        obj = [
            {"point": serialize_point(pt), "coeff": serialize_rational(c)}
            for pt, c in data.draw(st.permutations(entries))
        ]
        assert parse_divisor(obj, curve) == QDivisor(curve, entries)


def assert_built_from_scratch(D, curve, values):
    """D has the entries, in the same order, and the coefficient pairs of the
    validating constructor on the (point, value) pairs."""
    want = QDivisor(curve, values)
    assert D.curve == want.curve
    assert D.entries == want.entries
    assert D.coefficient_pairs == want.coefficient_pairs


def assert_fraction_definitions(D):
    """The numeric reads of D equal their definitions on its Fractions."""
    cs = [c for _, c in D.entries]
    degree = D.degree()
    assert type(degree) is F and degree == sum(cs, F(0))
    assert D.is_integral() == all(c.denominator == 1 for c in cs)
    assert D.common_denominator() == math.lcm(*(c.denominator for c in cs))
    assert D.fractional_support() == frozenset(
        pt for pt, c in D.entries if c.denominator != 1
    )


class TestDerivedOrder:
    """Derived divisors on the line keep the canonical entry order that the
    constructor gives, over Q and over Q(sqrt 2)."""

    @given(st.data())
    def test_derived_divisors_equal_the_constructor_entry_for_entry(self, data):
        curve, points = data.draw(curve_points(kinds=("Q", "sqrt2")))
        D = QDivisor(curve, data.draw(entry_lists(points)))
        # E overlaps D, and cancels some of its points outright
        cancelled = data.draw(st.lists(st.sampled_from(D.entries), unique=True)) if D.entries else []
        E = QDivisor(
            curve, data.draw(entry_lists(points)) + [(pt, -c) for pt, c in cancelled]
        )
        negative = data.draw(coeffs.filter(lambda r: r < 0))
        fractional = data.draw(coeffs.filter(lambda r: r.denominator > 1))
        derived = [(D, D.entries), (E, E.entries)]
        for r in (0, negative, fractional, F(1)):
            derived.append((D.scale(r), [(pt, c * r) for pt, c in D.entries]))
        derived.append((-D, [(pt, -c) for pt, c in D.entries]))
        derived.append((D.floor(), [(pt, math.floor(c)) for pt, c in D.entries]))
        derived.append((D + E, D.entries + E.entries))
        derived.append((D.scale(negative) + E.floor(), [
            *((pt, c * negative) for pt, c in D.entries),
            *((pt, math.floor(c)) for pt, c in E.entries),
        ]))
        for got, values in derived:
            assert_built_from_scratch(got, curve, values)
            assert_fraction_definitions(got)

    @given(st.data())
    def test_sum_equals_the_sorted_construction(self, data):
        """D + E merges the two ordered entry tuples; the construction it
        replaced, a dict merge sorted by point, is the reference, on the line
        over Q and Q(sqrt 2) and on Weierstrass curves."""
        curve, points = data.draw(curve_points())
        D = QDivisor(curve, data.draw(entry_lists(points)))
        cancelled = data.draw(st.lists(st.sampled_from(D.entries), unique=True)) if D.entries else []
        E = QDivisor(curve, data.draw(entry_lists(points)) + [(pt, -c) for pt, c in cancelled])
        merged = dict(D.entries)
        for pt, c in E.entries:
            merged[pt] = merged.get(pt, F(0)) + c
        want = sorted(
            ((pt, c) for pt, c in merged.items() if c), key=lambda item: point_sort_key(item[0])
        )
        got = D + E
        assert got.entries == tuple(want)
        assert got.coefficient_pairs == tuple((c.numerator, c.denominator) for _, c in want)

    def test_canonical_order_is_pinned(self):
        # finite points by coordinate, negative before positive, the point at
        # infinity last; over Q(sqrt 2) the coordinates in the power basis
        # compare lexicographically
        D = d({P1_INFINITY: 1, FiniteP1(2): 1, FiniteP1(F(1, 2)): -3,
               FiniteP1(-2): F(5, 2), FiniteP1(0): 2, FiniteP1(F(-1, 2)): 1})
        order = [FiniteP1(F(c)) for c in (-2, F(-1, 2), 0, F(1, 2), 2)] + [P1_INFINITY]
        for E in (D, D.scale(F(-3, 2)), -D, D.floor(), D + D.scale(F(1, 3))):
            assert list(E.points()) == order
        r2 = SQRT2.gen()
        K = QDivisor(SQRT2_LINE, {P1_INFINITY: 1, FiniteP1(r2): 1, FiniteP1(1): 1,
                                  FiniteP1(-r2): 1, FiniteP1(-1): 1})
        assert list(K.points()) == [
            FiniteP1(SQRT2.from_rational(-1)), FiniteP1(-r2), FiniteP1(r2),
            FiniteP1(SQRT2.from_rational(1)), P1_INFINITY,
        ]
        assert list(K.scale(-1).points()) == list(K.points())
