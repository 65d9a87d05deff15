"""Q-divisors: construction, floor, scaling, support, canonical order."""

from fractions import Fraction as F

import pytest

from qsection.divisors import (
    EC_ORIGIN,
    P1_INFINITY,
    FiniteP1,
    ProjectiveLine,
    QDivisor,
)
from qsection.errors import MixedCurveError
from qsection.exact_arith import NumberField

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
