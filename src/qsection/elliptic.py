"""Elliptic curves in short Weierstrass form and prime existence there.

Points are added with the chord-tangent law, and a degree-one integral
divisor is linearly equivalent to exactly one point, namely its group-law
sum.  That makes the prime-existence question for a graded piece a finite
computation: d*D must be an integral divisor of degree one, its group-law
sum P is the only candidate point, and the construction succeeds exactly
when P avoids the fractional support of D.  The public `ec_add`,
`ec_negate` and `ec_multiply` check their points; the law `_add`, the
multiple `_multiple` and `ec_divisor_sum` run on points checked there or
when a divisor was built, or computed by the law, and check nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divisors import EC_ORIGIN, CurvePoint, ECAffine, ECOrigin, QDivisor, _lift
from .errors import MixedCurveError
from .exact_arith import NumberField, Scalar

__all__ = [
    "WeierstrassCurve",
    "ECPrimeVerdict",
    "ec_add",
    "ec_negate",
    "ec_multiply",
    "ec_divisor_sum",
    "ec_is_principal",
    "ec_prime_exists",
]


@dataclass(frozen=True)
class WeierstrassCurve:
    """The smooth projective curve y^2 = x^3 + a*x + b."""

    a: Scalar
    b: Scalar
    field: NumberField | None = None

    def __init__(self, a, b, field: NumberField | None = None):
        object.__setattr__(self, "a", _lift(a, field))
        object.__setattr__(self, "b", _lift(b, field))
        object.__setattr__(self, "field", field)
        if not self.discriminant:
            raise ValueError("singular curve: the discriminant vanishes")

    @property
    def discriminant(self) -> Scalar:
        return (4 * self.a * self.a * self.a + 27 * self.b * self.b) * (-16)

    def lift_point(self, pt: CurvePoint) -> CurvePoint:
        if isinstance(pt, ECOrigin):
            return EC_ORIGIN
        if isinstance(pt, ECAffine):
            return ECAffine(_lift(pt.x, self.field), _lift(pt.y, self.field))
        raise MixedCurveError(f"{pt!r} is not a point of a Weierstrass curve")

    def contains(self, pt: CurvePoint) -> bool:
        try:
            pt = self.lift_point(pt)
        except MixedCurveError:
            return False
        if isinstance(pt, ECOrigin):
            return True
        x, y = pt.x, pt.y
        return y * y == x * x * x + self.a * x + self.b


def _require_on_curve(curve: WeierstrassCurve, pt: CurvePoint) -> CurvePoint:
    pt = curve.lift_point(pt)
    if not curve.contains(pt):
        raise ValueError(f"{pt!r} does not satisfy the curve equation")
    return pt


def _negate(pt: CurvePoint) -> CurvePoint:
    return pt if isinstance(pt, ECOrigin) else ECAffine(pt.x, -pt.y)


def _add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition of checked points, with the origin as identity."""
    if isinstance(p, ECOrigin):
        return q
    if isinstance(q, ECOrigin):
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return EC_ORIGIN
        slope = (3 * p.x * p.x + curve.a) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return ECAffine(x3, y3)


def _multiple(curve: WeierstrassCurve, n: int, pt: CurvePoint) -> CurvePoint:
    """The n-fold multiple of a checked point, by doubling."""
    if n < 0:
        n, pt = -n, _negate(pt)
    acc: CurvePoint = EC_ORIGIN
    while n:
        if n & 1:
            acc = _add(curve, acc, pt)
        n >>= 1
        if n:
            pt = _add(curve, pt, pt)
    return acc


def ec_negate(curve: WeierstrassCurve, pt: CurvePoint) -> CurvePoint:
    return _negate(_require_on_curve(curve, pt))


def ec_add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition with the origin as identity."""
    return _add(curve, _require_on_curve(curve, p), _require_on_curve(curve, q))


def ec_multiply(curve: WeierstrassCurve, n: int, pt: CurvePoint) -> CurvePoint:
    """The n-fold group-law multiple of a point, by doubling."""
    return _multiple(curve, n, _require_on_curve(curve, pt))


def ec_divisor_sum(D: QDivisor) -> CurvePoint:
    """Group-law sum of an integral divisor on a Weierstrass curve."""
    if not isinstance(D.curve, WeierstrassCurve):
        raise MixedCurveError("the divisor does not live on a Weierstrass curve")
    if not D.is_integral():
        raise ValueError("the group-law sum is defined for integral divisors")
    acc: CurvePoint = EC_ORIGIN
    for pt, coeff in D.entries:
        acc = _add(D.curve, acc, _multiple(D.curve, int(coeff), pt))
    return acc


def ec_is_principal(D: QDivisor) -> bool:
    """Whether an integral divisor is the divisor of a rational function.

    On an elliptic curve this holds exactly when the degree is zero and the
    group-law sum is the origin.
    """
    if not D.is_integral():
        raise ValueError("principality is defined for integral divisors")
    if D.degree() != 0:
        return False
    return isinstance(ec_divisor_sum(D), ECOrigin)


@dataclass(frozen=True)
class ECPrimeVerdict:
    exists: bool
    degree: int
    point: CurvePoint | None
    reason: str  # "ok" | "in_frac_support" | "not_linearly_equivalent_to_point"


def ec_prime_exists(D: QDivisor, degree: int) -> ECPrimeVerdict:
    """Decide existence of a homogeneous prime of the given degree.

    The candidate point is forced: d*D must be an integral divisor of
    degree one, and then it is linearly equivalent only to its group-law
    sum P.  The prime exists exactly when P avoids the fractional support
    of D.
    """
    if not isinstance(D.curve, WeierstrassCurve):
        raise MixedCurveError("the divisor does not live on a Weierstrass curve")
    if degree < 1:
        raise ValueError("the degree must be a positive integer")
    dD = D.scale(degree)
    if not dD.is_integral() or dD.degree() != 1:
        return ECPrimeVerdict(
            exists=False,
            degree=degree,
            point=None,
            reason="not_linearly_equivalent_to_point",
        )
    point = ec_divisor_sum(dD)
    if point in D.fractional_support():
        return ECPrimeVerdict(
            exists=False, degree=degree, point=point, reason="in_frac_support"
        )
    return ECPrimeVerdict(exists=True, degree=degree, point=point, reason="ok")
