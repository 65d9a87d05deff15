"""The function field of the projective line.

A rational function is a reduced quotient numer/denom in the affine
coordinate w; the denominator is kept monic.  The order at infinity equals
deg(denom) - deg(numer), so functions with divisor supported at declared
points can be built and factored exactly.

The divisor of a user-supplied function is computed by rational-root
extraction only: any residual factor of degree >= 1 raises IrrationalZeros,
and coefficients outside Q are rejected the same way.  Function synthesis
(`rr_basis`, `principal_function`) is generic over the scalar field.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .divisors import FiniteP1, InfinityP1, P1_INFINITY, ProjectiveLine, QDivisor
from .errors import IrrationalZerosError
from .exact_arith import Poly, poly_divrem, poly_gcd, scalar_inverse


class RationalFunctionP1:
    """A nonzero (or zero) rational function in reduced, denominator-monic form."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly, denom: Poly = None):
        if denom is None:
            denom = Poly.one()
        if denom.is_zero:
            raise ZeroDivisionError("zero denominator")
        if numer.is_zero:
            numer, denom = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(numer, denom)
            if g.degree > 0:
                numer = poly_divrem(numer, g)[0]
                denom = poly_divrem(denom, g)[0]
            inv = scalar_inverse(denom.leading)
            numer = numer.scale(inv)
            denom = denom.scale(inv)
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)

    @classmethod
    def reduced(cls, numer: Poly, denom: Poly) -> "RationalFunctionP1":
        """numer/denom taken as they are: the caller guarantees that they are
        coprime and that denom is monic, so no gcd is needed."""
        out = object.__new__(cls)
        object.__setattr__(out, "numer", numer)
        object.__setattr__(out, "denom", denom)
        return out

    @classmethod
    def one(cls) -> "RationalFunctionP1":
        return cls(Poly.one())

    @classmethod
    def constant(cls, c) -> "RationalFunctionP1":
        return cls(Poly.constant(c))

    @property
    def is_zero(self) -> bool:
        return self.numer.is_zero

    @property
    def ord_at_infinity(self) -> int:
        if self.is_zero:
            raise ValueError("the zero function has no order at infinity")
        return self.denom.degree - self.numer.degree

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionP1):
            return NotImplemented
        return self.numer == other.numer and self.denom == other.denom

    def __hash__(self):
        return hash((self.numer, self.denom))

    def __repr__(self):
        return f"RationalFunctionP1({self.numer!r}, {self.denom!r})"

    def __mul__(self, other):
        if not isinstance(other, RationalFunctionP1):
            return NotImplemented
        return RationalFunctionP1(self.numer * other.numer, self.denom * other.denom)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunctionP1):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunctionP1(self.numer * other.denom, self.denom * other.numer)

    def __pow__(self, n: int):
        if self.is_zero:
            if n <= 0:
                raise ZeroDivisionError("power of the zero function")
            return self
        if n >= 0:
            return RationalFunctionP1(self.numer**n, self.denom**n)
        return RationalFunctionP1(self.denom ** (-n), self.numer ** (-n))

    def scale(self, c) -> "RationalFunctionP1":
        return RationalFunctionP1(self.numer.scale(c), self.denom)


def _divisors_of_int(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _rational_linear_roots(p: Poly) -> tuple[dict[Fraction, int], Poly]:
    """All rational roots with multiplicity, plus the unfactored residual."""
    if p.is_zero:
        raise ValueError("root extraction from the zero polynomial")
    if not p.all_rational():
        raise IrrationalZerosError(
            "root extraction is only supported over rational coefficients"
        )
    coeffs = list(p.rational_coeffs())
    roots: dict[Fraction, int] = {}
    # peel off the root at zero first
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    work = Poly(coeffs)
    if work.degree <= 0:
        return roots, work
    scale = 1
    for c in coeffs:
        scale = math.lcm(scale, c.denominator)
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    lead = abs(ints[-1])
    const = ints[0]
    # candidates p/q in lowest terms, q > 0; q divides lead, so p * (lead // q)
    # orders them by value
    candidates = set()
    for pn in _divisors_of_int(const):
        for qn in _divisors_of_int(lead):
            g = math.gcd(pn, qn)
            candidates.add((pn // g, qn // g))
            candidates.add((-(pn // g), qn // g))
    # work = ints * divided / scale: every root p/q found divides ints by the
    # primitive q*w - p (exactly, by Gauss's lemma) and multiplies divided by q
    divided = 1
    for pn, qn in sorted(candidates, key=lambda c: c[0] * (lead // c[1])):
        while len(ints) > 1 and _homogeneous_value(ints, pn, qn) == 0:
            ints = _divide_linear(ints, pn, qn)
            divided *= qn
            root = Fraction(pn, qn)
            roots[root] = roots.get(root, 0) + 1
        if len(ints) <= 1:
            break
    return roots, Poly([Fraction(c * divided, scale) for c in ints])


def _homogeneous_value(ints: list[int], p: int, q: int) -> int:
    """sum_i ints[i] * p^i * q^(n-i), n = len(ints) - 1: q^n times the value at p/q."""
    acc = 0
    qpow = 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _divide_linear(ints: list[int], p: int, q: int) -> list[int]:
    """The quotient of ints by q*w - p, which must divide it exactly."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + carry) // q
        out[i - 1] = carry
        carry *= p
    return out


def divisor_of(g: RationalFunctionP1, curve: ProjectiveLine | None = None) -> QDivisor:
    """The divisor of zeros and poles of g, including the point at infinity."""
    if curve is None:
        curve = ProjectiveLine()
    if g.is_zero:
        raise ZeroDivisionError("the zero function has no divisor")
    zeros, res_n = _rational_linear_roots(g.numer)
    poles, res_d = _rational_linear_roots(g.denom)
    for res in (res_n, res_d):
        if res.degree > 0:
            raise IrrationalZerosError(
                f"a degree-{res.degree} factor has no rational zeros: {res!r}"
            )
    entries: dict = {}
    for r, m in zeros.items():
        entries[FiniteP1(r)] = entries.get(FiniteP1(r), 0) + m
    for r, m in poles.items():
        entries[FiniteP1(r)] = entries.get(FiniteP1(r), 0) - m
    inf_ord = g.denom.degree - g.numer.degree
    if inf_ord:
        entries[P1_INFINITY] = inf_ord
    return QDivisor(curve, entries)


def _linear_power(coord, exponent: int) -> Poly:
    return Poly([-coord, Fraction(1)]) ** exponent


def _rr_data(E: QDivisor) -> tuple[Poly, Poly, int]:
    """Common denominator, mandatory numerator factor, and top shift for H0(E)."""
    if not isinstance(E.curve, ProjectiveLine):
        raise ValueError("Riemann-Roch bases are computed on the projective line")
    if not E.is_integral():
        raise ValueError("H0 bases require an integral divisor; take a floor first")
    den = Poly.one()
    mand = Poly.one()
    for pt, c in E.entries:
        if isinstance(pt, InfinityP1):
            continue
        e = int(c)
        if e > 0:
            den = den * _linear_power(pt.coord, e)
        else:
            mand = mand * _linear_power(pt.coord, -e)
    return den, mand, int(E.degree())


def rr_basis(E: QDivisor) -> list[RationalFunctionP1]:
    """An echelon basis of H0(O(E)) = { g : div(g) + E >= 0 } on the line.

    The basis elements are mand * w^j / den for j = 0..deg(E); their
    numerators over the common denominator have strictly increasing degree,
    so the list is already in echelon form.  Empty when deg(E) < 0.
    """
    den, mand, cap = _rr_data(E)
    if cap < 0:
        return []
    return [RationalFunctionP1(mand.shifted(j), den) for j in range(cap + 1)]


def principal_function(A: QDivisor) -> RationalFunctionP1:
    """The monic-over-monic function with divisor exactly A.

    Requires A integral of total degree zero; the coefficient at infinity is
    then forced by the finite part, and uniqueness holds up to the scalar
    fixed by the normalization.
    """
    if not A.is_integral():
        raise ValueError("principal divisors are integral")
    if A.degree() != 0:
        raise ValueError("principal divisors have degree zero")
    # the common denominator of H0(A) carries the zeros of A (its positive
    # part) and the mandatory factor its poles
    numer, denom, _ = _rr_data(A)
    return RationalFunctionP1(numer, denom)
