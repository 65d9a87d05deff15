"""Graded models of section rings of ample Q-divisors on the projective line.

The degree-n piece of the ring attached to a divisor D = sum_x c_x [x] is
H0(O(floor(n*D))).  A section f of degree n is stored as its coordinate
polynomial q, with

    f = q * prod_x (w - x)^(-floor(n*c_x))        (x over the finite points),

and f is a section exactly when deg q <= deg floor(n*D): the product fixes
the finite orders, and the degree bound is the order at infinity.  The
coefficients of q are the coordinates of f in the echelon basis
mand * w^j / den of `rr_basis`, so q *is* the coordinate vector.

Products need no gcd.  Sections f_i of degrees d_i (i = 1..r) with
coordinate polynomials q_i have a product of degree n = sum_i d_i with
coordinate polynomial

    q_1 * ... * q_r * prod_x (w - x)^(floor(n*c_x) - sum_i floor(d_i*c_x)),

as f_i = q_i * prod_x (w - x)^(-floor(d_i*c_x)).  With {t} = t - floor(t),
the exponent at x is floor(sum_i {d_i*c_x}), from 0 to r - 1.  A generator
g has q_g = w^column_g, so a monomial prod_g g^e_g is read off its exponents
alone: w^(sum_g e_g*column_g) times the product with exponents
floor(n*c_x) - sum_g e_g*floor(d_g*c_x) (`monomial_coords`).  The case
r = 2 is carry(a, b), whose every exponent floor({a*c_x} + {b*c_x}) is 0 or
1, so a divisor with k finite points has at most 2^k carries.  The model
multiplies out each exponent vector (e_x) once.

Integer form.  A finite rational point x = a/b (b > 0, a and b coprime)
enters as the integer linear factor b*w - a, since w - x = (b*w - a) / b.
Any other point (a number-field coordinate, including a rational point of a
line over a number field) enters as the factor -x + w with scale 1.  A
product prod_x (w - x)^e_x is kept as a coefficient list c and an integer
B = prod_x b^e_x with polynomial c / B; c is integral for a rational
divisor.  One builder, `p1._h0_factors`, multiplies the lists out by plain
convolution over any scalars (each power (b*w - a)^e written down by the
binomial theorem), for each piece and each product of the model.  A piece
keeps its den and mand in this form (`Piece._factors`) and makes Fraction
polynomials of them only at its edges (`Piece.basis`, `Piece.function`,
`Generator.func`).  `Piece.coords` reads a function numer / denom on the
same lists: numer and denom are cleared to coefficient lists with one scale
each (`exact_arith._scaled_ints`: rational coefficients by the lcm of their
denominators, any others with scale 1), the products numer * den and
denom * mand are convolutions, and one fraction-free pseudo-division
(`exact_arith.pseudo_divrem`) decides membership and gives the quotient
times a known scale.  Field scalars are built only for the coordinates it
returns, so a rational read is Python int arithmetic throughout.

Linear algebra sees only the lists, as maps {column: nonzero entry}
(`Piece.vector`).  Generator discovery asks for spans, ranks, pivots and
membership, the primality oracle asks whether a product lies in the kernel
of one row, and none of them changes when a vector is multiplied by a
nonzero scalar, so they take c and drop B.  Relations are kernel vectors,
and the kernel does see the scales of single columns.
Monomial k has column M_k = w^s_k * c_k / B_k of the evaluation map M, and
`find_relations` enters it as (w^s_k * c_k | B_k*e_k) = B_k * (M_k | e_k):
a nonzero multiple of a vector moves no pivot and only scales its residual,
and a relation is a residual normalized to lead one, so no common
denominator of the B_k is needed.  Over a number field every B_k is 1.

One span per degree.  In a formed degree n with m monomials,
`find_relations` spans vectors (column block of length dim R_n | monomial
block of length m): each consequence c of an earlier relation as (0 | c),
then monomial k as (M_k | e_k), entered as B_k times it (above), in
`exponent_vectors` order.  Each vector is eliminated once, and
`SpanBuilder.add` stores its residual as a row, scaled to primitive ints or
to pivot one, and returns that row.  A consequence c enters as the map
{dim R_n + index of the monomial: coefficient}: the terms of a relation have
distinct exponents, and so do their shifts.  A residual (0 | w) is a new
relation w, normalized to lead one.  It is read off the stored row
(0 | w'), the row whose smallest column lies in the monomial block: w' is a
nonzero multiple of w, so w' normalized to lead one (the terms w'_i / w'_p,
p its pivot) is the same relation.  These are the relations of the kernel
route: take the canonical kernel basis of M, read off its reduced row
echelon form (for each free column k, the one kernel vector v_k that is 1
at k and supported on k and the pivot columns before k), reduce each v_k
against the span S_k of the consequences and of the relations recorded
before it, and normalize.  Proof: before monomial k the span holds
(0 | C) + span{(M_j | e_j) : j < k}, C the consequences.  Its vectors with
a zero column block are (0 | C + K_k), K_k the kernel vectors supported
below k.  K_k is spanned by the v_j with free j < k, and each such v_j is a
recorded relation plus an element of the span before it, or lies in that
span, so C + K_k = S_k.  The rows with a pivot in the monomial block are
thus an echelon basis of (0 | S_k), and both routes stop at the same
monomial, once dim S_k = m - dim R_n.  The residual of (M_k | e_k) has a
zero column block exactly when M_k lies in the span of the earlier columns,
that is when k is free; then it is (0 | w), and w - v_k is an element of C
plus a kernel vector supported below k, so w lies in v_k + S_k.  The kernel
route's residual also lies in v_k + S_k, and both vanish at every pivot of
S_k; their difference is an element of S_k that vanishes at every pivot,
which is 0.  So the relations agree coefficient for coefficient.  After the
last monomial the rows in the monomial block span (0 | K_n), so the kernel
dimension is reached.

The model converts to `RationalFunctionP1` only at its edges (generator
functions, `SectionRing.monomial`, `Piece.basis`) and reads user functions
in through `Piece.coords`.

The model stops at a degree bound, never below the proven generator bound
B* (below): generators are discovered degree by degree as the echelon
complement of products of earlier generators, and minimal relations are
read off the kernels of the evaluation maps, quotienting out consequences
of relations found in lower degrees.  The linear algebra is exact over the
scalar field; a count of leading monomials decides which degrees need it at
all (below).  A model can be extended to a higher bound in place; it then
equals a model built at that bound from scratch.

Shared divisor data.  Everything a model computes before the relations is
determined by D alone: the piece of each degree, the generators of each
degree up to B* (the span of degree n reads only D and the generators below
n), and the products and carries.  Models of equal divisors share one record
of them (`_DivisorData`), held for the 16 divisors modelled most recently.
A model keeps its own bound and its own lists of pieces and generators,
read from the record up to its bound (every generator lies at or below B*,
so an extended model lists them all), and reports what a cold build at its
bound reports; `extend` builds the piece and forms the span of a degree only
when no model of D has reached that degree.  The record is not locked:
models of one divisor must not be extended from several threads at once.

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
the integer coefficient pairs.  `extend` raises every requested bound
(3N by default) to B*, so every model holds its complete generator list; in
degrees above B* it records the piece and skips the span.

Multiplication maps.  In degree n the span of products of earlier
generators is sum_g g * R_{n - d_g} over the generators g found so far
(degrees d_g < n): every monomial of degree n with first factor g lies in
g * R_{n - d_g}, and R_{n - d_g} is spanned by monomials because the
generators of degrees below n generate the ring below n.  Its vectors are
the coordinate polynomials w^(column_g + j) * carry(d_g, n - d_g) for
j < dim R_{n - d_g}.  Pivots of a span do not depend on the order in which
its vectors arrive, so the generator columns are those of full monomial
enumeration; the span stops growing once it fills the piece.

Leading-term count.  Let S be the polynomial ring on the generators, graded
by their degrees, K the kernel of S -> R, and order the monomials of one
degree as `exponent_vectors` lists them, the first largest: weighted degree,
then lex, a monomial order.  In degree n the evaluation map is onto R_n (the
generators generate the ring up to the bound), so dim K_n = (number of
monomials) - dim R_n.  The pivots of an echelon basis of a subspace V of
S_n are the leading monomials in(V), one per dimension; the rows of the
span of `find_relations` with a pivot in the monomial block are an echelon
basis of K_n (above), so their pivots are in(K)_n.  Let J be the
monomial ideal generated by the in(K)_m learned in the degrees m < n that
were formed.  A skipped degree m had J_m = in(K)_m already (see below), so
J contains in(K)_m for every m < n, and J is inside in(K).  With c_n the
number of degree-n monomials outside J (the standard monomials of S/J),

    c_n = #monomials - dim J_n >= #monomials - dim in(K)_n = dim R_n.

When c_n = dim R_n, J_n = in(K)_n.  J_n lies in in(I)_n, with I the ideal
of the relations of degree below n, and I_n lies in K_n; equal leading
monomials give equal dimensions, so I_n = K_n: degree n gains no relation
and is skipped, with no monomials, consequences or columns.  When
c_n > dim R_n the degree is formed as before, and its pivots join J.

Until the first formed degree m, J is empty and c_n is the number of
degree-n monomials, the coefficient of t^n in 1/prod_j (1 - t^d_j); no set
of standard monomials is built before m.  From there on c_n is counted on
one set S_m of standard monomials per degree m, with S_0 = {1}, and at m the
sets S_1 .. S_(m-1) are built first, each holding every monomial of its
degree.  They form an order ideal: with J generated below n, a monomial
e of degree n lies in J exactly when some e / g_j with e_j > 0 does, since
a generator m of J that divides e has deg m < n, so m_j < e_j for some j,
and m divides e / g_j.  Generators of J above degree n - d_j divide no
monomial of that degree, so S_n is the set of e with e / g_j in S_{n - d_j}
for every j with e_j > 0 (`_standard`), and the count stops once it passes
dim R_n.  A formed degree ends with in(K)_n, which holds J_n, as the pivots
of its monomial block, and the monomials at the other columns become S_n.
Where in(I)_n is larger than J_n (an S-pair that would reduce to a new
leading monomial) the count stays above dim R_n and the degree is formed;
no Groebner basis is kept.

Hilbert series.  With denominator exponents e_j equal to the generator
degrees, the numerator is the product of the dimension series with
prod_j (1 - t^e_j).  It is a polynomial when the generators generate the
ring, and a failed fit proves the list incomplete, but a fit proves nothing:
the half-integer generators without the one of degree 3 still fit 1 + t^3
over (2, 2), as (1 - t^6) / (1 - t^3) = 1 + t^3.  Only B* certifies the
list, and every model reaches it.  The fit is decided on a proven window.
For n >= n0 = ceil(k / deg D) (the scan end above), deg floor(n*D) >
n*deg D - k >= 0, so dim R_n = n*deg D + 1 - phi(n) with
phi(n) = sum_x {n*c_x} periodic mod N.  Write
prod_j (1 - t^e_j) = sum_i a_i t^i, of degree E = sum_j e_j.  For
n >= n0 + E the numerator coefficient sum_i a_i dim R_(n-i) only reads the
formula, and as sum_i a_i = 0 (the product vanishes at t = 1) its terms
linear in n cancel: the coefficients from n0 + E on are periodic mod N.  So
the numerator is a polynomial, of degree below n0 + E, exactly when the N
coefficients from n0 + E on vanish, and `hilbert_series` raises
FitFailedError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add

from .divisors import InfinityP1, ProjectiveLine, QDivisor
from .errors import (
    FitFailedError,
    MembershipError,
    NotAmpleError,
    PoleOrderMismatchError,
)
from .exact_arith import Poly, _scaled_ints, convolve, pseudo_divrem
from .linalg import SpanBuilder
from .p1 import RationalFunctionP1, _as_poly, _h0_element, _h0_factors, _linear_factor


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


class Piece:
    """One graded piece with its echelon basis and coordinate map.

    Sections of the piece are handled as coordinate polynomials (see the
    module docstring); `basis` and `function` turn them into rational
    functions, `coords` and `member` turn rational functions into them.
    Two pieces are equal when they have the same divisor and degree.
    """

    __slots__ = ("divisor", "degree_t", "dim", "_cap", "_den_mand")

    def __init__(self, D: QDivisor, n: int):
        self.divisor = D
        self.degree_t = n
        self._cap = _floor_degree(D.coefficient_pairs, n)
        self.dim = max(self._cap + 1, 0)
        self._den_mand = None

    def __eq__(self, other):
        if not isinstance(other, Piece):
            return NotImplemented
        return self.degree_t == other.degree_t and self.divisor == other.divisor

    def __hash__(self):
        return hash((self.divisor, self.degree_t))

    def _factors(self) -> tuple[tuple[list, int], tuple[list, int]]:
        """Common denominator den and mandatory numerator factor mand of the
        basis, as the (c, B) pairs of `_h0_factors`, polynomials c / B.

        den = prod (w - x)^e over the points with e = floor(n*c_x) > 0 and
        mand = prod (w - x)^(-e) over those with e < 0, both monic.
        """
        if self._den_mand is None:
            n = self.degree_t
            self._den_mand = _h0_factors(
                (_linear_factor(pt.coord), n * c.numerator // c.denominator)
                for pt, c in self.divisor.entries
                if not isinstance(pt, InfinityP1)
            )
        return self._den_mand

    def _rr(self) -> tuple[Poly, Poly]:
        """den and mand of `_factors` as `Poly`s, for the rational-function edges."""
        den, mand = self._factors()
        return _as_poly(*den), _as_poly(*mand)

    @property
    def basis(self) -> tuple:
        """The echelon basis w^j * mand / den of `rr_basis`."""
        den, mand = self._rr()
        return tuple(_h0_element(den, mand, j) for j in range(self.dim))

    def function(self, q: Poly) -> RationalFunctionP1:
        """The section whose coordinate polynomial is q."""
        den, mand = self._rr()
        return RationalFunctionP1(q * mand, den)

    def vector(self, coeffs, shift: int = 0) -> dict:
        """Coordinates {column: nonzero entry} of the section with coordinate
        polynomial w^shift * coeffs (lowest degree first, the last one
        nonzero); raises MembershipError when that is no section."""
        if shift + len(coeffs) > self.dim:
            raise MembershipError(
                f"product of sections left the ring in degree {self.degree_t}"
            )
        return {shift + i: c for i, c in enumerate(coeffs) if c}

    def coords(self, f: RationalFunctionP1):
        """Coordinates of f in this piece's basis, or None if f is no member.

        numer and denom are coprime, so f = numer / denom is a member just
        when denom * mand divides numer * den with a quotient of degree at
        most the cap, and that quotient is the coordinate polynomial; its
        degree is read off the degrees first, so f past the cap is refused
        before any product.  The division runs on coefficient lists with one
        scale each: numer = N / a and denom = E / b, with rational
        coefficients cleared to ints by the lcm of their denominators and any
        others kept with scale 1, and den = C / B, mand = M / B' as
        `_factors` keeps them.  Then

            numer * den / (denom * mand) = (N * C) / (E * M) * (b * B') / (a * B),

        and `pseudo_divrem` gives s * N*C = q * E*M + r with deg r < deg E*M
        and no inverse; s divides L^k, L the lead of E*M and k the number of
        steps (Algorithm R proper takes s = L^k).  The pseudo-remainder r is
        zero exactly when the division is exact: if E*M divides N*C over the
        field, it divides r = s*N*C - q*E*M, whose degree is below that of
        E*M, so r = 0, as the lead L is nonzero; conversely r = 0 gives
        N*C / (E*M) = q / s.  So the coordinates are q * (b * B') / (s * a * B),
        and field scalars are built only for them: a rational f makes no
        Fraction arithmetic.  Over Q, E (a monic polynomial cleared by the lcm)
        and M (a product of primitive b*w - a) are primitive, so by Gauss's
        lemma a member's quotient is integral and s = 1; the division scales
        only on its way to a nonzero remainder.
        """
        if f.is_zero:
            return {}
        (den, den_b), (mand, mand_b) = self._factors()
        if f.numer.degree + len(den) - f.denom.degree - len(mand) > self._cap:
            return None
        numer, a = _scaled_ints(f.numer.coeffs) or (f.numer.coeffs, 1)
        denom, b = _scaled_ints(f.denom.coeffs) or (f.denom.coeffs, 1)
        q, rem, s = pseudo_divrem(convolve(numer, den), convolve(denom, mand))
        if any(rem):
            return None
        num, div = b * mand_b, s * a * den_b
        if type(div) is int and all(type(c) is int for c in q):
            return {i: Fraction(c * num, div) for i, c in enumerate(q) if c}
        scale = Fraction(num) / div
        return {i: c * scale for i, c in enumerate(q) if c}

    def member(self, f: RationalFunctionP1) -> dict:
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
    rational function.
    """

    degree: int
    column: int
    piece: Piece = field(repr=False)

    @property
    def func(self) -> RationalFunctionP1:
        return _h0_element(*self.piece._rr(), self.column)


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


class _DivisorData:
    """The record that the models of one divisor share (see "Shared divisor
    data" in the module docstring): the pieces of the degrees 0, 1, ...
    reached so far, the generators found in them in order of degree, and the
    product memos of `SectionRing._product` and `SectionRing.carry`."""

    __slots__ = ("pieces", "generators", "points", "products", "carries")

    def __init__(self, divisor: QDivisor):
        self.pieces = [Piece(divisor, 0)]
        self.generators: list[Generator] = []
        # (numerator, denominator, (integer factor, B)) of each finite point
        self.points = [
            (c.numerator, c.denominator, _linear_factor(pt.coord))
            for pt, c in divisor.entries
            if not isinstance(pt, InfinityP1)
        ]
        # (c, B) of prod_x (w - x)^e_x, keyed by the exponent vector (e_x)
        self.products: dict[tuple[int, ...], tuple[list, int]] = {}
        # carry(a, b) by the pair with a <= b
        self.carries: dict[tuple[int, int], tuple[list, int]] = {}


# A divisor's jobs (enumerate, construct, check) tend to arrive close
# together, so a short history catches the repeats: over the primes-mix
# benchmark streams of seeds 0-5, 16 records catch 162 of 222 lookups, as
# many as 32 do, and 8 catch 138.  The bound caps the memory a long-lived
# process spends on divisors it no longer models.
@lru_cache(maxsize=16)
def _divisor_data(divisor: QDivisor) -> _DivisorData:
    return _DivisorData(divisor)


class SectionRing:
    """Model of the section ring of an ample divisor up to a degree bound.

    Starts at bound 0 with no generators; `extend` discovers generators up
    to a bound of at least B*, so an extended model holds every generator.
    `build_section_ring` is the usual way to make one.  Raises NotAmpleError
    unless deg D > 0, then ValueError off the projective line.
    """

    def __init__(self, divisor: QDivisor):
        if divisor.degree() <= 0:
            raise NotAmpleError(f"divisor degree {divisor.degree()} is not positive")
        if not isinstance(divisor.curve, ProjectiveLine):
            raise ValueError("section-ring models are built on the projective line")
        self.divisor = divisor
        self._data = _divisor_data(divisor)
        self.bound = 0
        self.pieces = self._data.pieces[:1]
        self.generators: list[Generator] = []
        self.irredundant = False

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
    def _stable_range(self) -> tuple[int, int]:
        """(N, n0): N*D is integral, and n0 = ceil(k / deg D), with k the
        number of support points, is the degree from which on R_n != 0 (see
        the module docstring)."""
        pairs = self.divisor.coefficient_pairs
        N = math.lcm(*(b for _, b in pairs))
        degree_N = sum(a * (N // b) for a, b in pairs)  # N * deg D > 0
        return N, -(-len(pairs) * N // degree_N)

    @cached_property
    def generator_bound(self) -> int:
        """B*, above which no degree holds a generator (see the module
        docstring)."""
        N, scan_end = self._stable_range
        pairs = self.divisor.coefficient_pairs
        empty = [n for n in range(1, scan_end) if _floor_degree(pairs, n) < 0]
        return N + max(empty, default=0)

    def _product(self, expo: tuple[int, ...]) -> tuple[list, int]:
        """(c, B) with prod_x (w - x)^e_x = c / B over the finite points, every
        e_x >= 0: the den of `_h0_factors`; memoized by the exponent vector."""
        out = self._data.products.get(expo)
        if out is None:
            out = self._data.products[expo] = _h0_factors(
                (factor, e) for e, (_, _, factor) in zip(expo, self._data.points)
            )[0]
        return out

    def carry(self, a: int, b: int) -> tuple[list, int]:
        """(c, B) with carry(a, b) = c / B, the product formula for the two
        degrees a and b (see the module docstring); memoized by the pair."""
        key = (a, b) if a <= b else (b, a)
        out = self._data.carries.get(key)
        if out is None:
            n = a + b
            out = self._data.carries[key] = self._product(
                tuple(n * num // den - a * num // den - b * num // den
                      for num, den, _ in self._data.points)
            )
        return out

    def monomial_coords(self, expo: tuple[int, ...]) -> tuple[int, list, int]:
        """(s, c, B): the product of the generator powers g^e_g has
        coordinate polynomial w^s * c / B, with s = sum_g e_g * column_g and
        c / B = prod_x (w - x)^(floor(n*c_x) - sum_g e_g * floor(d_g*c_x)),
        n = sum_g e_g * d_g (the product formula of the module docstring)."""
        gens = [(e, g) for e, g in zip(expo, self.generators) if e]
        n = sum(e * g.degree for e, g in gens)
        coeffs, B = self._product(
            tuple(n * num // den - sum(e * (g.degree * num // den) for e, g in gens)
                  for num, den, _ in self._data.points)
        )
        return sum(e * g.column for e, g in gens), coeffs, B

    def monomial(self, expo: tuple[int, ...]) -> RationalFunctionP1:
        """Product of generator powers as a rational function."""
        degree = sum(e * g.degree for e, g in zip(expo, self.generators))
        shift, coeffs, B = self.monomial_coords(expo)
        return self.piece(degree).function(_as_poly(coeffs, B).shifted(shift))

    def extend(self, bound: int | None = None) -> "SectionRing":
        """Discover generators up to a higher bound, keeping all earlier work.

        The bound defaults to `default_bound` and must be at least 1 (else
        ValueError).  It is then raised to `generator_bound`, so the model
        holds every generator; a bound at or below the current one leaves
        the model as it is.

        In each degree up to `generator_bound` the span of products of
        already-known generators, sum_g g * R_{n - d_g}, is echelonized
        inside the piece; basis elements at the non-pivot columns (left to
        right) become new generators.  Higher degrees hold no generator and
        get their piece only.  A degree that a model of an equal divisor has
        reached takes its piece and generators from the shared record, with
        no span (see "Shared divisor data" in the module docstring).

        An extended model is irredundant: its support {1 <= n <= bound :
        R_n != 0} has gcd one.  If no R_n with n >= 1 is zero, degree 1 is
        in the support.  Otherwise let G0 be the largest degree with
        R_G0 = 0; then N >= 2 (for N = 1, deg floor(n*D) = n*deg D > 0), and
        every degree in (G0, G0 + N] is in the support, as the bound is at
        least B* = N + G0; it holds G0 + 1 and G0 + 2.
        """
        if bound is None:
            bound = default_bound(self.divisor)
        if bound < 1:
            raise ValueError("bound must be at least 1")
        top = self.generator_bound
        bound = max(bound, top, self.bound)
        data = self._data
        # degrees no model of the divisor has reached; the record holds every
        # generator below each of them
        for n in range(len(data.pieces), bound + 1):
            piece = Piece(self.divisor, n)
            if piece.dim and n <= top:
                span = SpanBuilder(piece.dim)
                for g in data.generators:
                    if span.rank == piece.dim:
                        break
                    carry = self.carry(g.degree, n - g.degree)[0]
                    for j in range(data.pieces[n - g.degree].dim):
                        span.add(piece.vector(carry, g.column + j))
                        if span.rank == piece.dim:
                            break
                pivots = set(span.pivots)
                data.generators.extend(
                    Generator(n, j, piece) for j in range(piece.dim) if j not in pivots
                )
            data.pieces.append(piece)
        self.pieces = data.pieces[: bound + 1]
        self.generators = data.generators[:]  # all of them, as top <= bound
        self.bound = bound
        self.irredundant = True
        return self


def build_section_ring(D: QDivisor, bound: int | None = None) -> SectionRing:
    """Discover the generators of the section ring of D, up to the degree
    bound raised to B* (see `SectionRing.extend`)."""
    return SectionRing(D).extend(bound)


def _keyed(e: tuple, power: list[int]) -> tuple[int, tuple]:
    """(sum_j e_j * power[j], the indices j with e_j != 0)."""
    nonzero = tuple(j for j, a in enumerate(e) if a)
    return sum(e[j] * power[j] for j in nonzero), nonzero


def _standard(standard: list[dict], degrees: list[int], power: list[int], cap: int) -> dict:
    """The standard monomials of degree n = len(standard), as {key: nonzero
    indices} in the form of `_keyed`, from those of each lower degree, for a
    monomial ideal generated below n; stops once there are more than `cap`.

    Each monomial e is made once, as s * g_i with i the largest index where e
    is nonzero, and is standard exactly when every e / g_j is (see
    "Leading-term count" in the module docstring).  Every set lists its
    monomials by ascending largest index, so the scan of s stops at the first
    one past i, and the output is made in that order.
    """
    n = len(standard)
    out: dict[int, tuple] = {}
    for i, d in enumerate(degrees):
        if d > n:
            continue
        step = power[i]
        for key, nonzero in standard[n - d].items():
            if nonzero and nonzero[-1] > i:
                break
            e = key + step
            for j in nonzero:
                if e - power[j] not in standard[n - degrees[j]]:
                    break
            else:
                out[e] = nonzero if nonzero and nonzero[-1] == i else nonzero + (i,)
                if len(out) > cap:
                    return out
    return out


def find_relations(model: SectionRing) -> list[Relation]:
    """Minimal relations among the generators, degree by degree up to the bound.

    Degree n is skipped when the leading-term count shows that it gains no
    relation: the standard monomials S_n of the leading monomials learned in
    lower degrees, built by `_standard` from the sets below, are as many as
    dim R_n (see the module docstring).  Before the first formed degree no
    monomial is a leading one, so the count is that of all degree-n
    monomials, read off their series, and no S_n is built.  Otherwise one
    span takes the consequences (lower-degree relation) * (monomial), then
    each monomial with its evaluation column ("One span per degree" in the
    module docstring).  A monomial whose residual has a zero column block
    gives a new minimal relation, the residual normalized to leading
    coefficient one.  Once the rows with a pivot in the monomial block
    number the kernel dimension (monomials - dim R_n) the degree is done;
    their pivots are the leading monomials of degree n, and the monomials
    off them are S_n.
    """
    degrees = [g.degree for g in model.generators]
    # an exponent is at most the bound, so the keys of `_keyed` are distinct
    power = [(model.bound + 1) ** j for j in range(len(degrees))]
    monomials: dict[int, list] = {}

    def monos_of(k: int) -> list:
        out = monomials.get(k)
        if out is None:
            out = monomials[k] = exponent_vectors(degrees, k)
        return out

    relations: list[Relation] = []
    # (degree, terms of the stored row) per relation: a multiple of the relation,
    # and a multiple of a vector changes no stored row
    scaled_terms: list[tuple[int, list]] = []
    # the number of degree-n monomials: c_n while J is empty
    monomial_counts = _div_one_minus([1], degrees, model.bound + 1)
    standard: list[dict] = [{0: ()}]  # S_m for m < n, once a degree is formed
    for n in range(1, model.bound + 1):
        piece = model.piece(n)
        dim = piece.dim
        if relations:
            standard.append(_standard(standard, degrees, power, dim))
            if len(standard[n]) == dim:
                continue
        elif monomial_counts[n] == dim:
            continue
        else:
            # the first formed degree, which finds a relation: below it S_m
            # holds every monomial of degree m
            for m in range(1, n):
                standard.append(_standard(standard, degrees, power, monomial_counts[m]))
            standard.append({})  # S_n, set from the pivots below
        monos = monos_of(n)
        full = len(monos) - dim  # the kernel dimension
        index = {e: i for i, e in enumerate(monos)}
        span = SpanBuilder(dim + len(monos))
        found = 0  # rows with a pivot in the monomial block
        for rel_degree, terms in scaled_terms:
            if found == full:
                break
            for mu in monos_of(n - rel_degree):
                vec = {dim + index[tuple(map(add, expo, mu))]: c for expo, c in terms}
                found += span.add(vec) is not None
                if found == full:
                    break
        if found < full:
            for k, e in enumerate(monos):
                if found == full:
                    break
                shift, coeffs, B = model.monomial_coords(e)
                vec = piece.vector(coeffs, shift)
                vec[dim + k] = B
                row = span.add(vec)
                if row is None or min(row) < dim:
                    continue
                terms = [(monos[i - dim], c) for i, c in sorted(row.items())]
                inv = Fraction(1) / terms[0][1]
                relations.append(Relation(n, tuple((expo, c * inv) for expo, c in terms)))
                scaled_terms.append((n, terms))
                found += 1
        pivots = set(span.pivots)
        # in the order `_standard` scans: by ascending largest index
        standard[n] = dict(sorted(
            (_keyed(e, power) for k, e in enumerate(monos) if dim + k not in pivots),
            key=lambda item: item[1][-1],
        ))
    return relations


def _mul_one_minus(coeffs, exps, size: int) -> list:
    """The first `size` coefficients of coeffs(t) * prod_e (1 - t^e)."""
    out = list(coeffs[:size]) + [0] * (size - len(coeffs))
    for e in exps:
        for k in range(size - 1, e - 1, -1):
            out[k] -= out[k - e]
    return out


def _div_one_minus(coeffs, exps, size: int) -> list:
    """The first `size` coefficients of the power series
    coeffs(t) / prod_e (1 - t^e)."""
    out = list(coeffs[:size]) + [0] * (size - len(coeffs))
    for e in exps:
        for k in range(e, size):
            out[k] += out[k - e]
    return out


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
        rels = [int(r) for r in relation_degrees]
        num = _mul_one_minus([1], rels, sum(rels) + 1)
        return cls(tuple(num), tuple(int(w) for w in weights))

    def expand(self, upto: int) -> list[int]:
        """Coefficients of the power-series expansion through degree upto."""
        return _div_one_minus(self.numerator, self.denominator_exponents, upto + 1)

    def numerator_degree(self) -> int:
        return len(self.numerator) - 1


def hilbert_series(model: SectionRing) -> HilbertSeries:
    """The numerator over denominators given by the generator degrees.

    Dimensions come from the divisor's degree formula, so the window is
    available regardless of the model bound.  The numerator coefficients
    from n0 + sum(exps) on are periodic mod N (see the module docstring), so
    it is a polynomial exactly when N of them vanish there; if they do not,
    the generator list is incomplete and the fit fails.  A fit does not
    prove the list complete; `generator_bound` does.
    """
    exps = sorted(model.generator_degrees)
    if not exps:
        raise FitFailedError("model has no generators to build a series from")
    N, n0 = model._stable_range
    start = n0 + sum(exps)
    dims = [graded_dimension(model.divisor, n) for n in range(start + N)]
    num = _mul_one_minus(dims, exps, start + N)
    if any(num[start:]):
        raise FitFailedError(
            "no integer numerator matches the dimension series; "
            "the generator list is incomplete or the bound is too small"
        )
    return HilbertSeries(tuple(num[:start]), tuple(exps))


def tomari_limit(hs: HilbertSeries, dim: int) -> Fraction:
    """lim_{t->1} (1-t)^dim * series, demanding pole order exactly dim."""
    num = list(hs.numerator)
    exps = hs.denominator_exponents
    v = 0
    while sum(num) == 0:
        num = _div_one_minus(num, (1,), len(num) - 1)  # exact, as num(1) == 0
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
