"""Rational-coefficient divisors on a curve.

A divisor is a finite formal sum of curve points with Fraction coefficients.
Points carry exact coordinates; a divisor is pinned to one curve and mixing
curves is a constructor error.  Entries are kept in a canonical order (finite
points sorted by coordinate, then the point at infinity) so that equal
divisors serialize identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedCurveError
from .exact_arith import NumberField, NumberFieldElem, Scalar, rational, scalar_sort_key


@dataclass(frozen=True)
class FiniteP1:
    """A point of the affine chart of the projective line, by its coordinate."""

    coord: Scalar


@dataclass(frozen=True)
class InfinityP1:
    """The point at infinity of the projective line."""


@dataclass(frozen=True)
class ECAffine:
    """An affine point (x, y) of a Weierstrass curve."""

    x: Scalar
    y: Scalar


@dataclass(frozen=True)
class ECOrigin:
    """The point at infinity of a Weierstrass curve (the group identity)."""


P1_INFINITY = InfinityP1()
EC_ORIGIN = ECOrigin()

CurvePoint = FiniteP1 | InfinityP1 | ECAffine | ECOrigin


def _lift(value, field: NumberField | None):
    if isinstance(value, NumberFieldElem):
        if field is None or value.field != field:
            raise MixedCurveError("coordinate lies in an undeclared number field")
        return value
    if field is None:
        return rational(value)
    return field.from_rational(rational(value))


@dataclass(frozen=True)
class ProjectiveLine:
    """The projective line over Q or over a declared number field."""

    field: NumberField | None = None

    def lift_point(self, pt: CurvePoint) -> CurvePoint:
        if isinstance(pt, InfinityP1):
            return P1_INFINITY
        if isinstance(pt, FiniteP1):
            return FiniteP1(_lift(pt.coord, self.field))
        raise MixedCurveError(f"{pt!r} is not a point of the projective line")

    def contains(self, pt: CurvePoint) -> bool:
        return isinstance(pt, (FiniteP1, InfinityP1))


def point_sort_key(pt: CurvePoint):
    if isinstance(pt, FiniteP1):
        return (0, scalar_sort_key(pt.coord))
    if isinstance(pt, ECAffine):
        return (0, scalar_sort_key(pt.x), scalar_sort_key(pt.y))
    return (1,)


class QDivisor:
    """A formal sum of points with exact rational coefficients."""

    __slots__ = ("curve", "entries", "_map", "_pairs")

    def __init__(self, curve, entries):
        items = entries.items() if hasattr(entries, "items") else entries
        merged: dict = {}
        for pt, coeff in items:
            c = rational(coeff)
            lifted = curve.lift_point(pt)
            if not curve.contains(lifted):
                raise MixedCurveError(f"{pt!r} does not lie on {curve!r}")
            merged[lifted] = merged.get(lifted, Fraction(0)) + c
        cleaned = tuple(
            sorted(
                ((pt, c) for pt, c in merged.items() if c != 0),
                key=lambda item: point_sort_key(item[0]),
            )
        )
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_map", dict(cleaned))

    def __eq__(self, other):
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self.curve == other.curve and self.entries == other.entries

    def __hash__(self):
        return hash((self.curve, self.entries))

    def __repr__(self):
        if not self.entries:
            return "QDivisor(0)"
        parts = [f"{c}*{pt!r}" for pt, c in self.entries]
        return f"QDivisor({' + '.join(parts)})"

    @property
    def coefficient_pairs(self) -> tuple:
        """(numerator, denominator) of each coefficient, in entry order.

        Read from the Fractions once per divisor, for loops that evaluate
        floors of multiples of the coefficients in integer arithmetic.
        """
        try:
            return self._pairs
        except AttributeError:
            self._pairs = tuple((c.numerator, c.denominator) for _, c in self.entries)
            return self._pairs

    def points(self) -> tuple:
        return tuple(pt for pt, _ in self.entries)

    def coeff(self, pt: CurvePoint) -> Fraction:
        return self._map.get(self.curve.lift_point(pt), Fraction(0))

    def degree(self) -> Fraction:
        return sum((c for _, c in self.entries), Fraction(0))

    def floor(self) -> "QDivisor":
        return QDivisor(self.curve, {pt: Fraction(math.floor(c)) for pt, c in self.entries})

    def scale(self, r) -> "QDivisor":
        r = rational(r)
        return QDivisor(self.curve, {pt: c * r for pt, c in self.entries})

    def _check_same_curve(self, other: "QDivisor"):
        if self.curve != other.curve:
            raise MixedCurveError("divisors live on different curves")

    def __add__(self, other):
        if not isinstance(other, QDivisor):
            return NotImplemented
        self._check_same_curve(other)
        merged = {pt: c for pt, c in self.entries}
        for pt, c in other.entries:
            merged[pt] = merged.get(pt, Fraction(0)) + c
        return QDivisor(self.curve, merged)

    def __sub__(self, other):
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QDivisor(self.curve, {pt: -c for pt, c in self.entries})

    def fractional_support(self) -> frozenset:
        return frozenset(pt for pt, c in self.entries if c.denominator != 1)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.entries)

    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self.entries)

    def common_denominator(self) -> int:
        out = 1
        for _, c in self.entries:
            out = math.lcm(out, c.denominator)
        return out

    def single_point(self):
        """The sole point if the divisor is exactly 1*P, else None."""
        if len(self.entries) == 1 and self.entries[0][1] == 1:
            return self.entries[0][0]
        return None


# Functional spellings of the divisor methods, used by the CLI layer.
def qdiv_floor(D: QDivisor) -> QDivisor:
    return D.floor()


def qdiv_degree(D: QDivisor) -> Fraction:
    return D.degree()


def qdiv_scale(D: QDivisor, r) -> QDivisor:
    return D.scale(r)


def qdiv_add(D: QDivisor, E: QDivisor) -> QDivisor:
    return D + E


def frac_support(D: QDivisor) -> frozenset:
    return D.fractional_support()


def qdiv_is_effective(D: QDivisor) -> bool:
    return D.is_effective()


def qdiv_is_integral(D: QDivisor) -> bool:
    return D.is_integral()
