"""Rational-coefficient divisors on a curve.

A divisor is a finite formal sum of curve points with Fraction coefficients.
Points carry exact coordinates; a divisor is pinned to one curve and mixing
curves is a constructor error.  Entries are kept in a canonical order (finite
points sorted by coordinate, then the point at infinity) so that equal
divisors serialize identically.

A point is checked where it enters: the `QDivisor` constructor or
`jsonio.parse_point`.  Derived divisors (`scale`, `-D`, `floor`, `D + E`),
those `prime_elements` constructs and `p1.divisor_of` hold checked points,
so `QDivisor._checked` builds them: it only drops zeros and sorts.  The
order is by point, and `scale`, `-D` and `floor` move no point, so they keep
their operand's order and sort nothing; `D + E` merges the two ordered
entry tuples.  The numeric reads (`degree`, `is_integral`,
`common_denominator`, `fractional_support`) use the integer
`coefficient_pairs`.
"""

from __future__ import annotations

import heapq
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


def _entry_key(item):
    return point_sort_key(item[0])


def _sorted(entries) -> list:
    """(point, coefficient) pairs in canonical order."""
    return sorted(entries, key=_entry_key)


class QDivisor:
    """A formal sum of points with exact rational coefficients, in `entries`;
    `coefficient_pairs` has the (numerator, denominator) of each of them."""

    __slots__ = ("curve", "entries", "coefficient_pairs")

    def __init__(self, curve, entries):
        items = entries.items() if hasattr(entries, "items") else entries
        merged: dict = {}
        for pt, coeff in items:
            c = rational(coeff)
            lifted = curve.lift_point(pt)
            if not curve.contains(lifted):
                raise MixedCurveError(f"{pt!r} does not lie on {curve!r}")
            merged[lifted] = merged.get(lifted, Fraction(0)) + c
        self._set(curve, _sorted(merged.items()))

    @classmethod
    def _checked(cls, curve, entries, ordered: bool = False) -> "QDivisor":
        """The divisor of (point, Fraction) pairs with distinct lifted points
        on the curve; `ordered` says that they are in canonical order already."""
        D = cls.__new__(cls)
        D._set(curve, entries if ordered else _sorted(entries))
        return D

    def _set(self, curve, entries) -> None:
        """Entries in canonical order, zeros dropped here."""
        self.curve = curve
        self.entries = tuple((pt, c) for pt, c in entries if c)
        self.coefficient_pairs = tuple((c.numerator, c.denominator) for _, c in self.entries)

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

    def points(self) -> tuple:
        return tuple(pt for pt, _ in self.entries)

    def coeff(self, pt: CurvePoint) -> Fraction:
        return dict(self.entries).get(self.curve.lift_point(pt), Fraction(0))

    def degree(self) -> Fraction:
        L = self.common_denominator()
        return Fraction(sum(n * (L // d) for n, d in self.coefficient_pairs), L)

    def floor(self) -> "QDivisor":
        floors = [
            (pt, Fraction(n // d)) for (pt, _), (n, d) in zip(self.entries, self.coefficient_pairs)
        ]
        return QDivisor._checked(self.curve, floors, ordered=True)

    def scale(self, r) -> "QDivisor":
        r = rational(r)
        return QDivisor._checked(self.curve, [(pt, c * r) for pt, c in self.entries], ordered=True)

    def __add__(self, other):
        if not isinstance(other, QDivisor):
            return NotImplemented
        if self.curve != other.curve:
            raise MixedCurveError("divisors live on different curves")
        # both entry tuples are in canonical order with distinct points, so a
        # point of both meets its twin next to it in the merged order
        merged: list = []
        for pt, c in heapq.merge(self.entries, other.entries, key=_entry_key):
            if merged and merged[-1][0] == pt:
                merged[-1] = (pt, merged[-1][1] + c)
            else:
                merged.append((pt, c))
        return QDivisor._checked(self.curve, merged, ordered=True)

    def __sub__(self, other):
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QDivisor._checked(self.curve, [(pt, -c) for pt, c in self.entries], ordered=True)

    def fractional_support(self) -> frozenset:
        return frozenset(
            pt for (pt, _), (_, d) in zip(self.entries, self.coefficient_pairs) if d != 1
        )

    def is_integral(self) -> bool:
        return all(d == 1 for _, d in self.coefficient_pairs)

    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self.entries)

    def common_denominator(self) -> int:
        return math.lcm(*(d for _, d in self.coefficient_pairs))

    def single_point(self):
        """The sole point if the divisor is exactly 1*P, else None."""
        if len(self.entries) == 1 and self.entries[0][1] == 1:
            return self.entries[0][0]
        return None
