"""Graded models of section rings of ample Q-divisors on the projective line.

The degree-n piece of the ring attached to a divisor D = sum_x c_x [x] is
H0(O(floor(n*D))).  A section f of degree n is stored as its coordinate
polynomial q, with

    f = q * prod_x (w - x)^(-floor(n*c_x))        (x over the finite points),

and f is a section exactly when deg q <= deg floor(n*D): the product fixes
the finite orders, and the degree bound is the order at infinity.  The
coefficients of q are the coordinates of f in the echelon basis
mand * w^j / den of `rr_basis`, so q *is* the coordinate vector.

Products need no gcd.  If f_a and f_b have coordinate polynomials q_a and
q_b, then f_a * f_b has coordinate polynomial q_a * q_b * carry(a, b), where

    carry(a, b) = prod_x (w - x)^(floor((a+b)*c_x) - floor(a*c_x) - floor(b*c_x))

and every exponent is 0 or 1: writing {t} = t - floor(t), the exponent is
floor({a*c_x} + {b*c_x}), and 0 <= {a*c_x} + {b*c_x} < 2.  The model
memoizes carry polynomials and monomial coordinate polynomials; it converts
to `RationalFunctionP1` only at its edges (generator functions,
`SectionRing.monomial`, `Piece.basis`) and reads user functions in through
`Piece.coords`.

The model truncates at a degree bound: generators are discovered degree by
degree as the echelon complement of products of earlier generators, and
minimal relations are read off the kernels of the evaluation maps,
quotienting out consequences of relations found in lower degrees.  No
Groebner machinery is involved; everything is exact linear algebra over the
scalar field.  A model can be extended to a higher bound in place; it then
equals a model built at that bound from scratch.

The Hilbert series is fitted numerically: with denominator exponents equal
to the generator degrees, the numerator is the (finite) product of the
dimension series with the denominator factors, and the fit is accepted only
when every coefficient above the expected numerator degree vanishes on a
guard window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .divisors import InfinityP1, QDivisor
from .errors import (
    BoundTooSmallWarning,
    FitFailedError,
    MembershipError,
    NotAmpleError,
    PoleOrderMismatchError,
)
from .exact_arith import Poly, poly_divrem, scalar_inverse, scalar_is_zero
from .linalg import SpanBuilder, kernel_basis
from .p1 import RationalFunctionP1, _rr_data, rr_basis


def _floor_degree(D: QDivisor, n: int) -> int:
    """deg floor(n*D) = sum_x floor(n*c_x), without building a divisor."""
    return sum(n * c.numerator // c.denominator for _, c in D.entries)


def graded_dimension(D: QDivisor, n: int) -> int:
    """dim H0(O(floor(n*D))) on the line: max(deg floor(n*D) + 1, 0)."""
    if n < 0:
        raise ValueError("graded pieces are indexed by nonnegative degrees")
    return max(_floor_degree(D, n) + 1, 0)


def default_bound(D: QDivisor) -> int:
    """Three periods of the coefficient denominators."""
    return 3 * D.common_denominator()


def carry_poly(D: QDivisor, a: int, b: int) -> Poly:
    """The polynomial taking q_a * q_b to the coordinates of f_a * f_b.

    prod (w - x) over the finite points x of D with
    floor((a+b)*c_x) - floor(a*c_x) - floor(b*c_x) = 1 (see the module
    docstring for why no other exponent occurs).
    """
    out = Poly.one()
    for pt, c in D.entries:
        if isinstance(pt, InfinityP1):
            continue
        if math.floor((a + b) * c) - math.floor(a * c) - math.floor(b * c):
            out = out * Poly([-pt.coord, Fraction(1)])
    return out


class Piece:
    """One graded piece with its echelon basis and coordinate map.

    Sections of the piece are handled as coordinate polynomials (see the
    module docstring); `basis` and `function` turn them into rational
    functions, `coords` and `member` turn rational functions into them.
    """

    __slots__ = ("divisor", "degree_t", "dim", "_cap", "_floor", "_den_mand", "_basis")

    def __init__(self, D: QDivisor, n: int):
        self.divisor = D
        self.degree_t = n
        self._cap = _floor_degree(D, n)
        self.dim = max(self._cap + 1, 0)
        self._floor = None
        self._den_mand = None
        self._basis = None

    @property
    def floor_divisor(self) -> QDivisor:
        """floor(n*D), built on first use (only the basis needs it)."""
        if self._floor is None:
            self._floor = self.divisor.scale(self.degree_t).floor()
        return self._floor

    def _rr(self) -> tuple[Poly, Poly]:
        """Common denominator and mandatory numerator factor of the basis."""
        if self._den_mand is None:
            self._den_mand = _rr_data(self.floor_divisor)[:2]
        return self._den_mand

    @property
    def basis(self) -> tuple:
        """The echelon basis of `rr_basis`, built on first use."""
        if self._basis is None:
            self._basis = tuple(rr_basis(self.floor_divisor))
        return self._basis

    def function(self, q: Poly) -> RationalFunctionP1:
        """The section whose coordinate polynomial is q."""
        den, mand = self._rr()
        return RationalFunctionP1(q * mand, den)

    def vector(self, q: Poly) -> list:
        """Coordinate vector of the section with coordinate polynomial q."""
        if q.degree > self._cap:
            raise MembershipError(
                f"product of sections left the ring in degree {self.degree_t}"
            )
        out = list(q.coeffs)
        out += [Fraction(0)] * (self.dim - len(out))
        return out

    def coords(self, f: RationalFunctionP1):
        """Coordinates of f in this piece's basis, or None if f is no member."""
        if f.is_zero:
            return [Fraction(0)] * self.dim
        if self.dim == 0:
            return None
        den, mand = self._rr()
        cofactor, rem = poly_divrem(den, f.denom)
        if not rem.is_zero:
            return None
        h = f.numer * cofactor
        p, rem = poly_divrem(h, mand)
        if not rem.is_zero:
            return None
        if p.degree > self._cap:
            return None
        return self.vector(p)

    def member(self, f: RationalFunctionP1) -> list:
        vec = self.coords(f)
        if vec is None:
            raise MembershipError(
                f"function is not a section in degree {self.degree_t}"
            )
        return vec


@dataclass(frozen=True)
class Generator:
    """A generator: basis element `column` of the piece of its degree.

    Its coordinate polynomial is w^column; `func` is the same section as a
    rational function.
    """

    degree: int
    index: int
    func: RationalFunctionP1
    column: int


@dataclass(frozen=True)
class Relation:
    """A minimal relation: a formal polynomial in the generators that maps
    to zero, stored as (exponent vector, coefficient) terms."""

    degree: int
    terms: tuple


def exponent_vectors(degrees: list[int], total: int):
    """All exponent tuples e with sum(e[i]*degrees[i]) == total.

    Deterministic order: the exponent of the first generator descends first.
    """
    n = len(degrees)
    last = n - 1
    out: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, prefix: tuple[int, ...]):
        d = degrees[i]
        if i == last:  # the last exponent is determined by what remains
            if rem % d == 0:
                out.append(prefix + (rem // d,))
            return
        for e in range(rem // d, -1, -1):
            rec(i + 1, rem - e * d, prefix + (e,))

    if total == 0:
        return [tuple([0] * n)] if n else [()]
    if n:
        rec(0, total, ())
    return out


class SectionRing:
    """Truncated model of the section ring of an ample divisor.

    Starts at bound 0 with no generators; `extend` discovers generators up
    to a bound.  `build_section_ring` is the usual way to make one.
    """

    def __init__(self, divisor: QDivisor):
        self.divisor = divisor
        self.bound = 0
        self.pieces = [Piece(divisor, 0)]
        self.generators: list[Generator] = []
        self.irredundant = False
        self.generators_at_bound = False
        # coordinate polynomials of generator monomials, keyed by exponent
        # vectors without trailing zeros
        self._mono_memo: dict[tuple[int, ...], Poly] = {(): Poly.one()}
        self._carry_memo: dict[tuple[int, int], Poly] = {}
        self._relations: list[Relation] | None = None
        self._hilbert: HilbertSeries | None = None

    def piece(self, n: int) -> Piece:
        if n < 0 or n > self.bound:
            raise IndexError(f"degree {n} is outside the model bound {self.bound}")
        return self.pieces[n]

    @property
    def dims(self) -> list[int]:
        return [p.dim for p in self.pieces]

    @property
    def generator_degrees(self) -> list[int]:
        return [g.degree for g in self.generators]

    def carry(self, a: int, b: int) -> Poly:
        """`carry_poly` of the divisor, memoized per model."""
        key = (a, b) if a <= b else (b, a)
        q = self._carry_memo.get(key)
        if q is None:
            q = self._carry_memo[key] = carry_poly(self.divisor, a, b)
        return q

    def monomial_coords(self, expo: tuple[int, ...]) -> Poly:
        """Coordinate polynomial of a product of generator powers, memoized."""
        key = tuple(expo)
        while key and key[-1] == 0:
            key = key[:-1]
        memo = self._mono_memo
        q = memo.get(key)
        if q is None:
            i = len(key) - 1
            smaller = key[:i] + (key[i] - 1,)
            gen = self.generators[i]
            rest = sum(e * g.degree for e, g in zip(smaller, self.generators))
            q = self.monomial_coords(smaller)
            carry = self.carry(gen.degree, rest)
            if carry.degree > 0:  # skip the common case of a carry of 1
                q = q * carry
            q = memo[key] = q.shifted(gen.column)
        return q

    def monomial(self, expo: tuple[int, ...]) -> RationalFunctionP1:
        """Product of generator powers as a rational function."""
        degree = sum(e * g.degree for e, g in zip(expo, self.generators))
        return self.piece(degree).function(self.monomial_coords(expo))

    def extend(self, bound: int) -> "SectionRing":
        """Discover generators up to a higher bound, keeping all earlier work.

        In each degree the span of products of already-known generators is
        echelonized inside the piece; basis elements at the non-pivot
        columns (left to right) become new generators.  A warning is issued
        when a generator shows up exactly at the bound, since then nothing
        certifies that higher degrees hold no further generators.
        """
        if bound < self.bound:
            raise ValueError(f"cannot shrink the model bound {self.bound} to {bound}")
        for n in range(self.bound + 1, bound + 1):
            piece = Piece(self.divisor, n)
            self.pieces.append(piece)
            if piece.dim == 0:
                continue
            span = SpanBuilder(piece.dim)
            for expo in exponent_vectors(self.generator_degrees, n):
                span.add(piece.vector(self.monomial_coords(expo)))
            pivots = set(span.pivots)
            for j in range(piece.dim):
                if j not in pivots:
                    func = piece.function(Poly.one().shifted(j))
                    self.generators.append(Generator(n, len(self.generators), func, j))
        self.bound = bound
        self._relations = None
        self._hilbert = None
        support = [n for n in range(1, bound + 1) if self.pieces[n].dim > 0]
        self.irredundant = math.gcd(*support) == 1 if support else False
        self.generators_at_bound = any(g.degree == bound for g in self.generators)
        if self.generators_at_bound:
            warnings.warn(
                f"generators found at the bound {bound}; raise the bound to certify completeness",
                BoundTooSmallWarning,
                stacklevel=3,
            )
        return self


def build_section_ring(D: QDivisor, bound: int | None = None) -> SectionRing:
    """Discover generators of the section ring of D up to a degree bound.

    See `SectionRing.extend` for the discovery and the bound warning.
    """
    if D.degree() <= 0:
        raise NotAmpleError(f"divisor degree {D.degree()} is not positive")
    if bound is None:
        bound = default_bound(D)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return SectionRing(D).extend(bound)


def find_relations(model: SectionRing) -> list[Relation]:
    """Minimal relations among the generators, degree by degree up to the bound.

    In degree n the kernel of the monomial evaluation map is computed, the
    subspace spanned by (lower-degree relation) * (monomial) is removed, and
    each surviving kernel vector, echelon-reduced and normalized to leading
    coefficient one, is recorded as a new minimal relation.
    """
    if model._relations is not None:
        return model._relations
    degrees = [g.degree for g in model.generators]
    relations: list[Relation] = []
    for n in range(1, model.bound + 1):
        monos = exponent_vectors(degrees, n)
        if not monos or all(not any(e) for e in monos):
            continue
        piece = model.piece(n)
        index = {e: i for i, e in enumerate(monos)}
        columns = [piece.vector(model.monomial_coords(e)) for e in monos]
        kern = kernel_basis(columns, piece.dim)
        if not kern:
            continue
        consequences = SpanBuilder(len(monos))
        for rel in relations:
            for mu in exponent_vectors(degrees, n - rel.degree):
                vec = [Fraction(0)] * len(monos)
                for expo, coeff in rel.terms:
                    shifted = tuple(a + b for a, b in zip(expo, mu))
                    vec[index[shifted]] = vec[index[shifted]] + coeff
                consequences.add(vec)
        for v in kern:
            res = consequences.reduce(v)
            lead = next((i for i, c in enumerate(res) if not scalar_is_zero(c)), None)
            if lead is None:
                continue
            inv = scalar_inverse(res[lead])
            res = [c * inv for c in res]
            terms = tuple(
                (monos[i], c) for i, c in enumerate(res) if not scalar_is_zero(c)
            )
            relations.append(Relation(n, terms))
            consequences.add(res)
    model._relations = relations
    return relations


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(t) / prod_j (1 - t^e_j) with an integer numerator."""

    numerator: tuple[int, ...]
    denominator_exponents: tuple[int, ...]

    def __post_init__(self):
        num = list(self.numerator)
        while num and num[-1] == 0:
            num.pop()
        object.__setattr__(self, "numerator", tuple(int(c) for c in num))
        object.__setattr__(
            self, "denominator_exponents", tuple(sorted(int(e) for e in self.denominator_exponents))
        )
        if not self.numerator:
            raise ValueError("zero numerator does not describe a graded ring")
        if any(e < 1 for e in self.denominator_exponents):
            raise ValueError("denominator exponents must be positive")

    @classmethod
    def from_weights(cls, weights, relation_degrees=()) -> "HilbertSeries":
        """Series of a complete intersection: prod(1-t^r) over prod(1-t^w)."""
        num = [1]
        for r in relation_degrees:
            r = int(r)
            new = num + [0] * r
            for i, c in enumerate(num):
                new[i + r] -= c
            num = new
        return cls(tuple(num), tuple(int(w) for w in weights))

    def expand(self, upto: int) -> list[int]:
        """Coefficients of the power-series expansion through degree upto."""
        out = list(self.numerator) + [0] * max(0, upto + 1 - len(self.numerator))
        out = out[: upto + 1]
        for e in self.denominator_exponents:
            for k in range(e, upto + 1):
                out[k] += out[k - e]
        return out

    def numerator_degree(self) -> int:
        return len(self.numerator) - 1


def hilbert_series(model: SectionRing) -> HilbertSeries:
    """Fit the numerator over denominators given by the generator degrees.

    Dimensions come from the divisor's degree formula, so the window is
    available regardless of the model bound.  The numerator may run past
    the sum of the weights (the a-invariant of the ring can be positive),
    so the window extends until a guard stretch of consecutive zeros
    appears; if none does, the generator list cannot be complete and the
    fit fails.
    """
    if model._hilbert is not None:
        return model._hilbert
    exps = sorted(model.generator_degrees)
    if not exps:
        raise FitFailedError("model has no generators to build a series from")
    total = sum(exps)
    guard = max(10, exps[-1] + 1, model.divisor.common_denominator() + 1)
    window = total + 3 * guard
    dims = [graded_dimension(model.divisor, n) for n in range(window + 1)]
    num = list(dims)
    for e in exps:
        for k in range(window, e - 1, -1):
            num[k] -= num[k - e]
    if any(num[window - guard + 1 :]):
        raise FitFailedError(
            "no integer numerator matches the dimension series; "
            "the generator list is incomplete or the bound is too small"
        )
    last = max((k for k, c in enumerate(num) if c), default=0)
    hs = HilbertSeries(tuple(num[: last + 1]), tuple(exps))
    model._hilbert = hs
    return hs


def _shrink_by_one_minus_t(num: list[int]) -> list[int]:
    """Exact quotient by (1 - t); valid only when num(1) == 0."""
    prefix = []
    acc = 0
    for c in num[:-1]:
        acc += c
        prefix.append(acc)
    return prefix


def tomari_limit(hs: HilbertSeries, dim: int) -> Fraction:
    """lim_{t->1} (1-t)^dim * series, demanding pole order exactly dim."""
    num = list(hs.numerator)
    exps = hs.denominator_exponents
    v = 0
    while sum(num) == 0:
        num = _shrink_by_one_minus_t(num)
        v += 1
        if not num:
            raise ValueError("zero numerator")
    if len(exps) - v != dim:
        raise PoleOrderMismatchError(
            f"pole order {len(exps) - v} at t=1, expected {dim}"
        )
    denom = 1
    for e in exps:
        denom *= e
    return Fraction(sum(num), denom)


def a_invariant(hs: HilbertSeries) -> int:
    """Degree of the series as a rational function of t.

    For the graded rings produced here this equals the a-invariant provided
    the ring is Cohen-Macaulay; that hypothesis is the caller's to assert.
    """
    return hs.numerator_degree() - sum(hs.denominator_exponents)


# Short operation names used throughout the command-line layer.
graded_dim = graded_dimension
build_ring = build_section_ring
