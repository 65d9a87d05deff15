"""The function field of the projective line.

A rational function is a reduced quotient numer/denom in the affine
coordinate w; the denominator is kept monic.  The order at infinity equals
deg(denom) - deg(numer), so functions with divisor supported at declared
points can be built and factored exactly.  The constructor reduces by the
one gcd loop of `exact_arith` (`_lowest_terms`): over Q on integer
coefficient lists, divided exactly by their primitive gcd, with the
Fractions built once; over a number field on monic remainders.  Functions
whose parts are coprime and monic by construction skip it
(`RationalFunctionP1.reduced`).

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
from .exact_arith import Poly, _lowest_terms, _scaled_ints, convolve, pseudo_divrem


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
            n, d = _lowest_terms(numer.coeffs, denom.coeffs)
            numer, denom = Poly(n), Poly(d)
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
    try:
        coeffs = [c if type(c) is Fraction else c.as_fraction() for c in p.coeffs]
    except ValueError:
        raise IrrationalZerosError(
            "root extraction is only supported over rational coefficients"
        ) from None
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
    if work.degree == 1:  # c0 + c1*w: the root -c0/c1, and c1 is left over
        roots[-coeffs[0] / coeffs[1]] = 1
        return roots, Poly([coeffs[1]])
    ints, scale = _scaled_ints(coeffs)
    content = math.gcd(*ints)  # a constant factor must not widen the search
    ints = [c // content for c in ints]
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
    # work = ints * content * divided / scale: a root p/q found divides the
    # primitive ints by the primitive q*w - p, exactly over Z by Gauss's lemma
    # (so `pseudo_divrem` scales by s = 1), multiplying divided by q
    divided = 1
    for pn, qn in sorted(candidates, key=lambda c: c[0] * (lead // c[1])):
        while len(ints) > 1 and _homogeneous_value(ints, pn, qn) == 0:
            ints = pseudo_divrem(ints, [-pn, qn])[0]
            divided *= qn
            root = Fraction(pn, qn)
            roots[root] = roots.get(root, 0) + 1
        if len(ints) <= 1:
            break
    return roots, Poly([Fraction(c * content * divided, scale) for c in ints])


def _homogeneous_value(ints: list[int], p: int, q: int) -> int:
    """sum_i ints[i] * p^i * q^(n-i), n = len(ints) - 1: q^n times the value at p/q."""
    acc = 0
    qpow = 1
    for c in reversed(ints):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


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
    # g is reduced, so its zeros and poles lie at distinct points
    orders = [*zeros.items(), *((r, -m) for r, m in poles.items())]
    entries = [(curve.lift_point(FiniteP1(r)), Fraction(m)) for r, m in orders]
    entries.append((P1_INFINITY, Fraction(g.denom.degree - g.numer.degree)))
    return QDivisor._checked(curve, entries)


def _linear_factor(x) -> tuple[list, int]:
    """(c, B) with w - x = (c[0] + c[1]*w) / B.

    A rational x = a/b (b > 0, in lowest terms) gives the integer factor
    b*w - a with B = b; any other scalar gives -x + w with B = 1.
    """
    if type(x) is Fraction:
        return [-x.numerator, x.denominator], x.denominator
    return [-x, 1], 1


def _as_poly(coeffs, B: int) -> Poly:
    """The polynomial coeffs / B."""
    return Poly([Fraction(c, B) for c in coeffs] if B != 1 else coeffs)


def _linear_power(factor, e: int) -> list:
    """(c0 + c1*w)^e for factor [c0, c1] and e >= 1, by the binomial theorem:
    the coefficient of w^k is C(e, k) * c0^(e-k) * c1^k."""
    if e == 1:
        return factor
    c0, c1 = factor
    low, high = [1], [1]
    for _ in range(e):
        low.append(low[-1] * c0)
        high.append(high[-1] * c1)
    out, binom = [], 1
    for k in range(e + 1):
        out.append(binom * low[e - k] * high[k])
        binom = binom * (e - k) // (k + 1)
    return out


def _h0_factors(exponents) -> tuple[tuple[list, int], tuple[list, int]]:
    """(den, mand) for ((integer factor, b), e) pairs of `_linear_factor` at
    distinct points x: den = prod (w - x)^e over e > 0 and mand =
    prod (w - x)^(-e) over e < 0, monic and coprime, each as (c, B) with
    polynomial c / B.  The one place where such products are multiplied out;
    each power of a factor is written down at once (`_linear_power`)."""
    den, den_b, mand, mand_b = [1], 1, [1], 1
    for (factor, b), e in exponents:
        if e > 0:
            den, den_b = convolve(den, _linear_power(factor, e)), den_b * b**e
        elif e < 0:
            mand, mand_b = convolve(mand, _linear_power(factor, -e)), mand_b * b**-e
    return (den, den_b), (mand, mand_b)


def _h0_element(den: Poly, mand: Poly, j: int) -> RationalFunctionP1:
    """The basis element w^j * mand / den, in lowest terms without a gcd.

    den and mand are products of (w - x) over disjoint sets of points, so
    the only common factor of w^j * mand and den is w^k, with k the smaller
    of j and the order of den at 0; den / w^k is still monic.
    """
    k = 0
    while k < j and not den.coeffs[k]:
        k += 1
    return RationalFunctionP1.reduced(mand.shifted(j - k), Poly(den.coeffs[k:]) if k else den)


def _rr_data(E: QDivisor) -> tuple[Poly, Poly, int]:
    """Common denominator, mandatory numerator factor, and top shift for H0(E)."""
    if not isinstance(E.curve, ProjectiveLine):
        raise ValueError("Riemann-Roch bases are computed on the projective line")
    if not E.is_integral():
        raise ValueError("H0 bases require an integral divisor; take a floor first")
    den, mand = _h0_factors(
        (_linear_factor(pt.coord), int(c)) for pt, c in E.entries if not isinstance(pt, InfinityP1)
    )
    return _as_poly(*den), _as_poly(*mand), int(E.degree())


def rr_basis(E: QDivisor) -> list[RationalFunctionP1]:
    """An echelon basis of H0(O(E)) = { g : div(g) + E >= 0 } on the line.

    The basis elements are mand * w^j / den for j = 0..deg(E); their
    numerators over the common denominator have strictly increasing degree,
    so the list is already in echelon form.  Empty when deg(E) < 0.
    """
    den, mand, cap = _rr_data(E)
    if cap < 0:
        return []
    return [_h0_element(den, mand, j) for j in range(cap + 1)]


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
    # part) and the mandatory factor its poles: monic, over disjoint points
    numer, denom, _ = _rr_data(A)
    return RationalFunctionP1.reduced(numer, denom)
