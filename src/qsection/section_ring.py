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
floor({a*c_x} + {b*c_x}), and 0 <= {a*c_x} + {b*c_x} < 2.  So carry(a, b)
depends only on the subset of points with exponent 1, and a divisor with k
finite points has at most 2^k carries; the model builds each one once.

Integer form.  A finite rational point x = a/b (b > 0, a and b coprime)
enters as the integer linear factor b*w - a, since w - x = (b*w - a) / b.
Any other point (a number-field coordinate, including a rational point of a
line over a number field) enters as the factor -x + w with scale 1.  A
carry, and the coordinate polynomial of a product of generators (a shift
w^s times a product of carries), is kept as a coefficient list c and an
integer B with polynomial c / B: B is the product of the b's of the factors
taken, and c has integer coefficients for a rational divisor.  The lists
are multiplied by plain convolution (`convolve`), over any scalars.

Linear algebra sees only the lists.  Generator discovery and the primality
oracle ask for spans, ranks, pivots and membership, and none of them
changes when a vector is multiplied by a nonzero scalar, so they take c and
drop B.  Relations are kernel vectors, and the kernel does see the scales:
if column k of the evaluation map is c_k / B_k, then v is in the kernel of
the true columns exactly when v'[k] = v[k] / B_k is in the kernel of the
integer columns c_k, since sum_k v[k] * c_k / B_k = sum_k v'[k] * c_k.
Column scaling keeps the pivot columns, so both matrices have the same free
columns.  The canonical kernel vector of a free column f (1 at f, 0 at the
other free columns) of the integer matrix, v', therefore maps to
v[k] = v'[k] * B_k / B_f, which is 1 at f and 0 at the other free columns
and hence the canonical kernel vector of the true matrix: the relations are
exactly those elimination over the true columns gives.  The free column f
of v' is its last nonzero entry, because in reduced row echelon form a row
has no entry left of its pivot.

The model converts to `RationalFunctionP1` only at its edges (generator
functions, `SectionRing.monomial`, `Piece.basis`) and reads user functions
in through `Piece.coords`.

The model truncates at a degree bound: generators are discovered degree by
degree as the echelon complement of products of earlier generators, and
minimal relations are read off the kernels of the evaluation maps,
quotienting out consequences of relations found in lower degrees.  No
Groebner machinery is involved; everything is exact linear algebra over the
scalar field.  A model can be extended to a higher bound in place; it then
equals a model built at that bound from scratch.

Proven generator bound.  Let N be the common denominator of the
coefficients, so that N*D is integral and floor((n+N)*D) = floor(n*D) + N*D.
On the line, multiplication H0(O(A)) x H0(O(B)) -> H0(O(A+B)) is onto
whenever deg A >= 0 and deg B >= 0.  With A = floor(n*D) and B = N*D this
gives R_{n+N} = R_n * R_N whenever R_n != 0.  So a degree m with
R_{m-N} != 0 and m > N is a sum of products of lower degrees and carries no
generator, and every generator has degree at most

    B* = N + max{n >= 1 : R_n = 0}        (N when no such n exists).

The set is finite: floor(t) > t - 1, so deg floor(n*D) > n*deg D - k with k
the number of support points, and R_n != 0 once n*deg D >= k; the scan stops
there.  `SectionRing.generator_bound` is B*, computed once per model from
the integer coefficient pairs.  In degrees above it `extend` records the
piece and skips the span.  The default bound stays 3N.

Multiplication maps.  In degree n the span of products of earlier
generators is sum_g g * R_{n - d_g} over the generators g found so far
(degrees d_g < n): every monomial of degree n with first factor g lies in
g * R_{n - d_g}, and R_{n - d_g} is spanned by monomials because the
generators of degrees below n generate the ring below n.  Its vectors are
the coordinate polynomials w^(column_g + j) * carry(d_g, n - d_g) for
j < dim R_{n - d_g}.  Pivots of a span do not depend on the order in which
its vectors arrive, so the generator columns are those of full monomial
enumeration; the span stops growing once it fills the piece.

Counted kernels.  In degree n the monomials in the generators span R_n, so
the evaluation map has kernel dimension (number of monomials) - dim R_n.
`find_relations` forms the consequences of earlier relations first, and
builds the columns and their kernel only when the consequences fall short
of that dimension; otherwise no new relation can arise in degree n.

The Hilbert series is fitted numerically: with denominator exponents equal
to the generator degrees, the numerator is the (finite) product of the
dimension series with the denominator factors, and the fit is accepted only
when every coefficient above the expected numerator degree vanishes on a
guard window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .divisors import InfinityP1, ProjectiveLine, QDivisor
from .errors import (
    BoundTooSmallWarning,
    FitFailedError,
    MembershipError,
    NotAmpleError,
    PoleOrderMismatchError,
)
from .exact_arith import Poly, convolve, poly_divrem, scalar_inverse, scalar_is_zero
from .linalg import SpanBuilder, kernel_basis, primitive_multiple
from .p1 import RationalFunctionP1


def _floor_degree(pairs, n: int) -> int:
    """deg floor(n*D) = sum_x floor(n*c_x) from the (numerator, denominator)
    pairs of D's coefficients, without building a divisor."""
    return sum(n * a // b for a, b in pairs)


def graded_dimension(D: QDivisor, n: int) -> int:
    """dim H0(O(floor(n*D))) on the line: max(deg floor(n*D) + 1, 0)."""
    if n < 0:
        raise ValueError("graded pieces are indexed by nonnegative degrees")
    return max(_floor_degree(D.coefficient_pairs, n) + 1, 0)


def default_bound(D: QDivisor) -> int:
    """Three periods of the coefficient denominators."""
    return 3 * D.common_denominator()


def _linear_factor(x) -> tuple[list, int]:
    """(c, B) with w - x = (c[0] + c[1]*w) / B (see the module docstring)."""
    if type(x) is Fraction:
        return [-x.numerator, x.denominator], x.denominator
    return [-x, 1], 1


def _as_poly(coeffs, B: int) -> Poly:
    """The polynomial coeffs / B."""
    return Poly([Fraction(c, B) for c in coeffs] if B != 1 else coeffs)


class Piece:
    """One graded piece with its echelon basis and coordinate map.

    Sections of the piece are handled as coordinate polynomials (see the
    module docstring); `basis` and `function` turn them into rational
    functions, `coords` and `member` turn rational functions into them.
    Two pieces are equal when they have the same divisor and degree.
    """

    __slots__ = ("divisor", "degree_t", "dim", "_cap", "_den_mand", "_basis")

    def __init__(self, D: QDivisor, n: int):
        self.divisor = D
        self.degree_t = n
        self._cap = _floor_degree(D.coefficient_pairs, n)
        self.dim = max(self._cap + 1, 0)
        self._den_mand = None
        self._basis = None

    def __eq__(self, other):
        if not isinstance(other, Piece):
            return NotImplemented
        return self.degree_t == other.degree_t and self.divisor == other.divisor

    def __hash__(self):
        return hash((self.divisor, self.degree_t))

    def _rr(self) -> tuple[Poly, Poly]:
        """Common denominator den and mandatory numerator factor mand of the basis.

        den = prod (w - x)^e over the points with e = floor(n*c_x) > 0 and
        mand = prod (w - x)^(-e) over those with e < 0, both monic, built from
        the integer factors of the points.
        """
        if self._den_mand is None:
            den, den_b, mand, mand_b = [1], 1, [1], 1
            for pt, c in self.divisor.entries:
                if isinstance(pt, InfinityP1):
                    continue
                e = self.degree_t * c.numerator // c.denominator
                factor, b = _linear_factor(pt.coord)
                for _ in range(e):
                    den, den_b = convolve(den, factor), den_b * b
                for _ in range(-e):
                    mand, mand_b = convolve(mand, factor), mand_b * b
            self._den_mand = (_as_poly(den, den_b), _as_poly(mand, mand_b))
        return self._den_mand

    @property
    def basis(self) -> tuple:
        """The echelon basis of `rr_basis`, built on first use."""
        if self._basis is None:
            self._basis = tuple(self.unit_function(j) for j in range(self.dim))
        return self._basis

    def function(self, q: Poly) -> RationalFunctionP1:
        """The section whose coordinate polynomial is q."""
        den, mand = self._rr()
        return RationalFunctionP1(q * mand, den)

    def unit_function(self, j: int) -> RationalFunctionP1:
        """The basis element w^j * mand / den, in lowest terms without a gcd.

        den and mand are products of (w - x) over disjoint sets of points, so
        the only common factor of w^j * mand and den is w^k, with k the
        smaller of j and the order of den at 0; den / w^k is still monic.
        """
        den, mand = self._rr()
        k = 0
        while k < j and not den.coeffs[k]:
            k += 1
        return RationalFunctionP1.reduced(
            mand.shifted(j - k), Poly(den.coeffs[k:]) if k else den
        )

    def vector(self, coeffs, shift: int = 0) -> list:
        """Coordinate vector of the section with coordinate polynomial
        w^shift * coeffs (coefficients lowest degree first, the last one
        nonzero); raises MembershipError when that is no section."""
        pad = self.dim - shift - len(coeffs)
        if pad < 0:
            raise MembershipError(
                f"product of sections left the ring in degree {self.degree_t}"
            )
        return [0] * shift + list(coeffs) + [0] * pad

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
        return self.vector(p.coeffs)

    def member(self, f: RationalFunctionP1) -> list:
        vec = self.coords(f)
        if vec is None:
            raise MembershipError(
                f"function is not a section in degree {self.degree_t}"
            )
        return vec


@dataclass(frozen=True)
class Generator:
    """A generator: basis element `column` of `piece`, the piece of its degree.

    Its coordinate polynomial is w^column; `func` is the same section as a
    rational function, built on first use.
    """

    degree: int
    index: int
    column: int
    piece: Piece = field(repr=False)

    @cached_property
    def func(self) -> RationalFunctionP1:
        return self.piece.unit_function(self.column)


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
        if not isinstance(divisor.curve, ProjectiveLine):
            raise ValueError("section-ring models are built on the projective line")
        self.divisor = divisor
        self.bound = 0
        self.pieces = [Piece(divisor, 0)]
        self.generators: list[Generator] = []
        self.irredundant = False
        self.generators_at_bound = False
        # (numerator, denominator, integer factor, B) of each finite point
        self._points = [
            (c.numerator, c.denominator, *_linear_factor(pt.coord))
            for pt, c in divisor.entries
            if not isinstance(pt, InfinityP1)
        ]
        # (shift, coefficients, B) of generator monomials, keyed by exponent
        # vectors without trailing zeros
        self._mono_memo: dict[tuple, tuple[int, list, int]] = {(): (0, [1], 1)}
        self._carry_subset: dict[tuple[int, int], tuple[int, ...]] = {}
        self._carry_memo: dict[tuple[int, ...], tuple[list, int]] = {}
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

    @cached_property
    def generator_bound(self) -> int:
        """B*, above which no degree holds a generator (see the module
        docstring); raises NotAmpleError unless deg D > 0."""
        pairs = self.divisor.coefficient_pairs
        N = math.lcm(*(b for _, b in pairs))
        degree_N = sum(a * (N // b) for a, b in pairs)  # N * deg D
        if degree_N <= 0:
            raise NotAmpleError(f"divisor degree {self.divisor.degree()} is not positive")
        # R_n != 0 once n * deg D >= k, the number of support points
        scan_end = -(-len(pairs) * N // degree_N)
        empty = [n for n in range(1, scan_end) if _floor_degree(pairs, n) < 0]
        return N + max(empty, default=0)

    def carry(self, a: int, b: int) -> tuple[list, int]:
        """(c, B) with carry(a, b) = c / B (see the module docstring).

        Memoized twice per model: (a, b) to the subset of points with
        exponent 1, and the subset to its product, so each distinct carry is
        multiplied out once.
        """
        key = (a, b) if a <= b else (b, a)
        subset = self._carry_subset.get(key)
        if subset is None:
            # floor({a*c} + {b*c}) is 1 exactly when the remainders overflow
            subset = self._carry_subset[key] = tuple(
                i
                for i, (num, den, _, _) in enumerate(self._points)
                if (a * num) % den + (b * num) % den >= den
            )
        out = self._carry_memo.get(subset)
        if out is None:
            coeffs, B = [1], 1
            for i in subset:
                factor, b_i = self._points[i][2:]
                coeffs, B = convolve(coeffs, factor), B * b_i
            out = self._carry_memo[subset] = (coeffs, B)
        return out

    def monomial_coords(self, expo: tuple[int, ...]) -> tuple[int, list, int]:
        """(s, c, B): a product of generator powers has coordinate polynomial
        w^s * c / B; memoized."""
        key = tuple(expo)
        while key and key[-1] == 0:
            key = key[:-1]
        memo = self._mono_memo
        out = memo.get(key)
        if out is None:
            i = len(key) - 1
            smaller = key[:i] + (key[i] - 1,)
            gen = self.generators[i]
            rest = sum(e * g.degree for e, g in zip(smaller, self.generators))
            shift, coeffs, B = self.monomial_coords(smaller)
            carry, carry_b = self.carry(gen.degree, rest)
            if len(carry) > 1:  # skip the common case of a carry of 1
                coeffs, B = convolve(carry, coeffs), B * carry_b
            out = memo[key] = (shift + gen.column, coeffs, B)
        return out

    def monomial(self, expo: tuple[int, ...]) -> RationalFunctionP1:
        """Product of generator powers as a rational function."""
        degree = sum(e * g.degree for e, g in zip(expo, self.generators))
        shift, coeffs, B = self.monomial_coords(expo)
        return self.piece(degree).function(_as_poly(coeffs, B).shifted(shift))

    def extend(self, bound: int) -> "SectionRing":
        """Discover generators up to a higher bound, keeping all earlier work.

        In each degree up to `generator_bound` the span of products of
        already-known generators, sum_g g * R_{n - d_g}, is echelonized
        inside the piece; basis elements at the non-pivot columns (left to
        right) become new generators.  Higher degrees hold no generator and
        get their piece only.  A warning is issued when a generator shows up
        exactly at the bound, since then nothing certifies that higher
        degrees hold no further generators.
        """
        if bound < self.bound:
            raise ValueError(f"cannot shrink the model bound {self.bound} to {bound}")
        top = self.generator_bound
        for n in range(self.bound + 1, bound + 1):
            piece = Piece(self.divisor, n)
            self.pieces.append(piece)
            if piece.dim == 0 or n > top:
                continue
            span = SpanBuilder(piece.dim)
            for g in self.generators:
                if span.rank == piece.dim:
                    break
                carry = self.carry(g.degree, n - g.degree)[0]
                for j in range(self.pieces[n - g.degree].dim):
                    span.add(piece.vector(carry, g.column + j))
                    if span.rank == piece.dim:
                        break
            pivots = set(span.pivots)
            for j in range(piece.dim):
                if j not in pivots:
                    self.generators.append(Generator(n, len(self.generators), j, piece))
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
    coefficient one, is recorded as a new minimal relation.  The kernel is
    taken over the integer columns and scaled back (see the module
    docstring).  Every consequence (relation times monomial) lies in the
    kernel, whose dimension is the number of monomials minus dim R_n, so
    once their span has that dimension no new relation can follow in that
    degree: the remaining consequences, the columns and the kernel are not
    formed.
    """
    if model._relations is not None:
        return model._relations
    degrees = [g.degree for g in model.generators]
    relations: list[Relation] = []
    # (degree, terms with a primitive multiple of the coefficients) per relation
    scaled_terms: list[tuple[int, list]] = []
    for n in range(1, model.bound + 1):
        monos = exponent_vectors(degrees, n)
        piece = model.piece(n)
        full = len(monos) - piece.dim  # the kernel dimension
        if full <= 0:
            continue
        index = {e: i for i, e in enumerate(monos)}
        consequences = SpanBuilder(len(monos))
        for rel_degree, terms in scaled_terms:
            if consequences.rank == full:
                break
            for mu in exponent_vectors(degrees, n - rel_degree):
                vec = [0] * len(monos)
                for expo, coeff in terms:
                    vec[index[tuple(a + b for a, b in zip(expo, mu))]] += coeff
                consequences.add(vec)
                if consequences.rank == full:
                    break
        if consequences.rank == full:
            continue
        columns, scales = [], []
        for e in monos:
            shift, coeffs, B = model.monomial_coords(e)
            columns.append(piece.vector(coeffs, shift))
            scales.append(B)
        for v in kernel_basis(columns, piece.dim):
            if consequences.rank == full:
                break
            free_scale = scales[max(i for i, c in enumerate(v) if c)]
            v = [
                c * Fraction(B, free_scale) if c and B != free_scale else c
                for c, B in zip(v, scales)
            ]
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
            coeffs = primitive_multiple([c for _, c in terms])
            scaled_terms.append((n, [(e, c) for (e, _), c in zip(terms, coeffs)]))
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


# Short name, kept because the acceptance suite imports it.
build_ring = build_section_ring
