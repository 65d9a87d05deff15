"""Homogeneous prime elements of section-ring models.

Three routes are kept deliberately separate and cross-checked:

* `necessary_check` evaluates the arithmetic conditions any homogeneous
  prime of degree d must satisfy: with s the gcd of the degrees where the
  quotient is nonzero, gcd(d, s) = 1, the divisor s*d*D must be an integral
  divisor of degree one, and s*div(g) + s*d*D must be a single point.

* `enumerate_primes` runs the constructive search: writing deg D = 1/N with
  N the common coefficient denominator, only degrees d | N with
  gcd(d, N/d) = 1 can carry primes.  For s = N/d > 1 the candidate point is
  pinned down by congruences on the coefficients of N*D; for s = 1 every
  point outside the fractional support yields a candidate, giving a
  one-parameter family.  The congruence search is a derived algorithm, so
  every candidate it produces is confirmed by the oracle before being
  reported (and the output marks the method as derived).

* `primality_oracle` is the independent brute-force check: in a graded
  domain the quotient by a prime has all piece dimensions <= 1, and then
  primality up to the bound is equivalent to all pairwise products of the
  nonzero quotient representatives staying nonzero modulo the ideal.  It
  reads the candidate into coordinates once and then works with coordinate
  polynomials and the model's carry polynomials (see `section_ring`), and
  tests each product against one row per degree (below).

Indecomposable oracle pairs.  Let S be the quotient support (degrees n >= 1
with (R/xR)_n of dimension one) and r_n the representative in degree n.
The pairs (a, b), a <= b, a + b within the window, are ordered by a, then
b, and the first pair with r_a * r_b = 0 in the quotient is the witness.
Only a that are not a sum a1 + a2 of two degrees of S need to be tried:
suppose (a, b) is the first vanishing pair and a = a1 + a2 with a1 <= a2 in
S.  Every pair with first entry below a is nonzero.  So r_a1 * r_a2 is a
nonzero element of the one-dimensional (R/xR)_a, r_a1 * r_a2 = mu * r_a with
mu != 0; likewise r_a2 * r_b = nu * r_(a2+b) with nu != 0 (a2 < a <= b), and
r_a1 * r_(a2+b) != 0 (a1 < a).  Hence
r_a * r_b = (nu / mu) * r_a1 * r_(a2+b) != 0, a contradiction.  The first
vanishing pair therefore has an indecomposable a, so restricting a keeps
both the verdict and the witness.  As a <= b and a + b lie within the
window W, the scan takes a in S up to W/2, skips the a in the set of sums
a1 + a2 of two degrees of S (made once up to W/2, as the set bits of an
int), and takes b in S from a up to W - a, in the same order.

One row per degree.  Once every quotient dimension up to the window is at
most one, x*R_{m-d} needs no span.  Let k = dim R_{m-d} and write qdims[m]
for dim R_m - k.  If k = 0 (m < d, or R_{m-d} = 0 as in degree 3 of the
half-integer ring at d = 2), the image is zero, the representative is w^0
and no product in degree m vanishes; the degree of q_g * carry(d, m-d) is
not bounded there, so it is not read.  If k >= 1, x*R_{m-d} is spanned by
the shifts w^j * base, j < k, with base = q_g * carry(d, m-d).  As
w^(k-1) * base lies in R_m, deg base <= dim R_m - k = qdims[m] <= 1, so
base = b0 + b1*w.  The lowest term of w^j * base is w^j when b0 != 0 and
w^(j+1) otherwise, so the shifts are independent, their pivots are 0..k-1
or 1..k, and the representative is w^k or w^0.  If qdims[m] = 0 the image
is all of R_m and every product in degree m vanishes.  If qdims[m] = 1, let
K = dim R_m - 1 = k and

    lambda_m(P) = sum_i P_i * (-b0)^i * b1^(K-i)      for P in R_m.

For b1 != 0 this is b1^K * P(-b0/b1), and every shift vanishes at the root
-b0/b1 of base; for b1 = 0 it is P_K * (-b0)^K, and every shift w^j * b0,
j < K, has no w^K term.  So lambda_m kills every shift, and it is nonzero
(b0 and b1 are not both zero), so its kernel has dimension K = k: it is
x*R_{m-d}.  A product r_a * r_b = w^(j_a+j_b) * carry(a, b) therefore
vanishes in the quotient iff sum_i c_i * lambda_(a+b)[j_a+j_b+i] = 0, with
c the coefficients of carry(a, b).  Scaling base or c by a nonzero constant
scales lambda or the sum, so integer multiples serve, and the same scalar
operators work over a number field.

Two reads.  The oracle and `necessary_check` see a candidate g*T^d only
through its coordinate polynomial q in R_d, g = q * prod_x (w - x)^(-f_x)
with f_x = floor(d*c_x) over the finite points x (see `section_ring`), read
once per piece (`_candidate_coords`).

* q from the divisor.  A candidate that `_constructed` builds carries
  A = div(g), as `principal_function(A)` has exactly that divisor.  Then q
  has order A_x + f_x at every finite point x (A_x = 0 off the support of
  A, f_x = 0 off that of D) and no other zero, so a multiple of q is
  prod_x (w - x)^(A_x + f_x), which `p1._h0_factors` writes down with no
  division (`_divisor_coords`).  g lies in R_d exactly when
  div(g) + floor(d*D) >= 0: at a finite x when A_x + f_x >= 0, and at
  infinity when A_inf + f_inf >= 0, where A_inf = -sum_x A_x (deg A = 0),
  that is when deg q = sum_x (A_x + f_x) <= deg floor(d*D) = dim R_d - 1.
  So a negative or fractional exponent, or exponents summing past
  dim R_d - 1, raise MembershipError, the test `Piece.vector` makes.  Over
  Q each factor b*w - a is primitive with a positive lead, so by Gauss's
  lemma the product is the primitive multiple with a positive lead that
  `primitive_multiple` makes of `Piece.member(g)`; over a number field
  both are monic.  The two reads give the same list.  `PrimeCandidate.
  divisor` must therefore be div(g), or the oracle would test another
  element than the g that is printed; only `_constructed` sets it.

* div(g) from q.  Conversely ord_x(g) = ord_x(q) - f_x at a finite support
  point x of D, ord_y(g) = ord_y(q) at any other finite point y, and
  ord_inf(g) = sum_x f_x - deg q, as a polynomial of degree k has order -k
  at infinity (`_candidate_divisor`).  ord_x(q) at a support point is read
  by exact division by its linear factor, so a support point with a
  number-field coordinate needs no root search; the rest of q goes to
  `p1._rational_linear_roots`, and a residual factor of degree >= 1 raises
  IrrationalZerosError.  q has degree at most dim R_d - 1, where `divisor_of`
  searches the numerator and the denominator of g.  Whenever
  `divisor_of(g)` returns, g has rational coefficients and rational zeros
  and poles, and so has q with its support factors divided out: both give
  div(g).  The read off q also succeeds when g's only factors outside Q
  are powers of w - x at support points x.  `divisor_of` and
  `Piece.member` are the test references of the two reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .divisors import P1_INFINITY, CurvePoint, FiniteP1, InfinityP1, QDivisor, point_sort_key
from .errors import (
    BoundTooSmallError,
    HypothesisViolatedError,
    IrrationalZerosError,
    MembershipError,
    NegativeDimError,
    NotAmpleError,
    NotLinearlyEquivalentError,
    QSectionError,
    ZeroCandidateError,
)
from .exact_arith import Poly, convolve, primitive_multiple, pseudo_divrem
from .p1 import (
    RationalFunctionP1,
    _h0_factors,
    _linear_factor,
    _rational_linear_roots,
    principal_function,
)
from .section_ring import Piece, SectionRing


@dataclass(frozen=True)
class PrimeCandidate:
    """A homogeneous element g*T^degree of the model; `divisor` is div(g)
    when a construction knows it."""

    g: RationalFunctionP1
    degree: int
    divisor: QDivisor | None = field(default=None, compare=False)
    _read: list = field(default_factory=lambda: [None, None], init=False, compare=False, repr=False)


@dataclass(frozen=True)
class QuotientProfile:
    """Dimension counts of R/xR up to the model bound."""

    degree: int
    dims: tuple[int, ...]
    s: int
    bound: int

    def support(self) -> tuple[int, ...]:
        return tuple(n for n in range(1, self.bound + 1) if self.dims[n])


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the arithmetic conditions a prime of degree d must meet.

    `passed` aggregates the strictly necessary conditions.  The fractional
    support flag is diagnostic: a candidate whose point meets the fractional
    support of s*D falls outside the constructive hypotheses, and in every
    worked example such candidates fail the oracle.  `profile` is the
    quotient profile the conditions were read from.
    """

    degree: int
    s: int
    gcd_ok: bool
    scaled_divisor_ok: bool
    degree_identity_ok: bool
    point_divisor: QDivisor
    point: CurvePoint | None
    point_in_fractional_support: bool
    profile: QuotientProfile

    @property
    def passed(self) -> bool:
        return (
            self.gcd_ok
            and self.scaled_divisor_ok
            and self.degree_identity_ok
            and self.point is not None
        )


@dataclass(frozen=True)
class OracleResult:
    is_prime: bool
    kind: str  # "ok" | "dimension" | "product"
    witness: tuple[int, ...] | None
    bound: int


@dataclass(frozen=True)
class PrimeVerdict:
    """One entry of the enumeration output."""

    degree: int
    s: int
    kind: str  # "unique" | "family"
    point: CurvePoint | None = None
    excluded: tuple = ()
    generator: RationalFunctionP1 | None = None
    generator_divisor: QDivisor | None = None
    samples: tuple = ()
    oracle_bound: int = 0


def veronese_transform(D: QDivisor, s: int) -> QDivisor:
    """Divisor of the s-th Veronese regrading: the model of s*D."""
    if s < 1:
        raise ValueError("Veronese index must be a positive integer")
    return D.scale(s)


def _finite_floors(piece: Piece) -> dict:
    """{x: floor(n*c_x)} over the finite support points x of the piece's
    divisor, n its degree."""
    n = piece.degree_t
    return {
        pt: n * c.numerator // c.denominator
        for pt, c in piece.divisor.entries
        if not isinstance(pt, InfinityP1)
    }


def _divisor_coords(piece: Piece, A: QDivisor) -> list:
    """The coordinate polynomial prod_x (w - x)^(A_x + floor(n*c_x)) of the
    function with divisor A (see "Two reads" in the module docstring); raises
    MembershipError when an exponent is negative or not an integer, or when
    they sum past the top column."""
    expo = _finite_floors(piece)
    for pt, c in A.entries:
        if not isinstance(pt, InfinityP1):
            expo[pt] = expo.get(pt, 0) + c
    if any(e < 0 or e.denominator != 1 for e in expo.values()) or sum(expo.values()) >= piece.dim:
        raise MembershipError(f"function is not a section in degree {piece.degree_t}")
    return _h0_factors((_linear_factor(pt.coord), int(e)) for pt, e in expo.items())[0][0]


def _candidate_coords(model: SectionRing, cand: PrimeCandidate) -> list:
    """A multiple of the candidate's coordinate polynomial in the piece of its
    degree, read once per piece and kept on the candidate with the piece it
    was read in, which is recognized by identity, so no piece is hashed:
    primitive ints when rational, lowest degree first, last entry nonzero.
    A constructed candidate is written down from its divisor, any other one
    is read by `Piece.member` (see "Two reads" in the module docstring)."""
    if cand.g.is_zero:
        raise ZeroCandidateError("the candidate is the zero function, which is never prime")
    piece = model.piece(cand.degree)
    read = cand._read
    if read[0] is not piece:
        if cand.divisor is not None:
            q = _divisor_coords(piece, cand.divisor)
        else:
            vec = piece.member(cand.g)
            q = primitive_multiple([vec.get(j, 0) for j in range(max(vec) + 1)])
        read[:] = piece, q
    return read[1]


def _order(q: list, factor: list) -> tuple[int, list]:
    """(k, a nonzero multiple of q / factor^k), k the order of the nonzero
    list q at the zero of the linear factor."""
    k = 0
    while len(q) > 1:
        quo, rem, _ = pseudo_divrem(q, factor)
        if any(rem):
            break
        q, k = quo, k + 1
    return k, q


def _candidate_divisor(model: SectionRing, cand: PrimeCandidate) -> QDivisor:
    """div(g), read off the coordinate polynomial q of the candidate (see
    "Two reads" in the module docstring); raises IrrationalZerosError when q
    keeps a factor of degree >= 1 with no rational zero."""
    q = _candidate_coords(model, cand)
    floors = _finite_floors(model.piece(cand.degree))
    entries = [(P1_INFINITY, Fraction(sum(floors.values()) - len(q) + 1))]
    rest = q
    for pt, e in floors.items():
        k, rest = _order(rest, _linear_factor(pt.coord)[0])
        entries.append((pt, Fraction(k - e)))
    zeros, residual = _rational_linear_roots(
        Poly([Fraction(c) if type(c) is int else c for c in rest])
    )
    if residual.degree > 0:
        raise IrrationalZerosError(
            f"a degree-{residual.degree} factor has no rational zeros: {residual!r}"
        )
    curve = model.divisor.curve
    entries += [(curve.lift_point(FiniteP1(r)), Fraction(m)) for r, m in zeros.items()]
    return QDivisor._checked(curve, entries)


def _quotient_dims(dims: list[int], d: int, upto: int) -> list[int]:
    """dim R_n - dim R_{n-d} for n = 0..upto, the quotient dimensions of a
    nonzerodivisor of degree d; a negative one raises NegativeDimError."""
    qdims = []
    for n in range(upto + 1):
        val = dims[n] - (dims[n - d] if n >= d else 0)
        if val < 0:
            raise NegativeDimError(f"quotient dimension {val} in degree {n}")
        qdims.append(val)
    return qdims


def quotient_profile(model: SectionRing, cand: PrimeCandidate) -> QuotientProfile:
    """Dimensions of (R/xR)_n for n up to the bound, and their degree gcd s.

    In a domain a nonzero homogeneous x is a nonzerodivisor, so the
    quotient dimension in degree n is dim R_n - dim R_{n-d}.
    """
    d = cand.degree
    if d < 1 or d > model.bound:
        raise ValueError("candidate degree is outside the model bound")
    _candidate_coords(model, cand)
    qdims = _quotient_dims(model.dims, d, model.bound)
    support = [n for n in range(1, model.bound + 1) if qdims[n]]
    if not support:
        raise BoundTooSmallError(
            "quotient support is empty up to the bound; raise the bound"
        )
    return QuotientProfile(d, tuple(qdims), math.gcd(*support), model.bound)


def necessary_check(model: SectionRing, cand: PrimeCandidate) -> NecessaryReport:
    """Evaluate the necessary arithmetic conditions for cand to be prime;
    div(g) is read off the candidate's coordinates (see "Two reads" in the
    module docstring)."""
    prof = quotient_profile(model, cand)
    d, s = cand.degree, prof.s
    D = model.divisor
    sdD = D.scale(s * d)
    scaled_ok = sdD.is_integral() and sdD.degree() == 1
    degree_ok = D.degree() == Fraction(1, s * d)
    point_div = _candidate_divisor(model, cand).scale(s) + sdD
    point = point_div.single_point()
    in_frac = point is not None and point in D.scale(s).fractional_support()
    return NecessaryReport(
        degree=d,
        s=s,
        gcd_ok=math.gcd(d, s) == 1,
        scaled_divisor_ok=scaled_ok,
        degree_identity_ok=degree_ok,
        point_divisor=point_div,
        point=point,
        point_in_fractional_support=in_frac,
        profile=prof,
    )


def _quotient_row(model: SectionRing, q_g: list, d: int, m: int) -> tuple[int, list]:
    """(j, lam) in degree m for x = g*T^d, whose quotient dimension there is
    at most one: w^j is the quotient representative, and the kernel of the
    row lam in R_m is x*R_{m-d} (see "One row per degree" in the module
    docstring)."""
    dim = model.pieces[m].dim
    k = model.pieces[m - d].dim if m >= d else 0
    if not k:  # the image is zero
        return 0, [1] * dim
    qdim = dim - k
    base = convolve(model.carry(d, m - d)[0], q_g)
    if len(base) > qdim + 1:
        raise MembershipError(f"product of sections left the ring in degree {m}")
    if not qdim:  # the image is all of R_m
        return 0, [0] * dim
    b0, b1 = base[0], base[1] if len(base) > 1 else 0
    return (k if b0 else 0), [(-b0) ** i * b1 ** (k - i) for i in range(dim)]


def primality_oracle(
    model: SectionRing, cand: PrimeCandidate, bound: int | None = None
) -> OracleResult:
    """Brute-force primality of x = g*T^d in the truncated model.

    Any quotient dimension above one refutes primality outright (the
    quotient of a graded domain by a homogeneous prime embeds in a
    polynomial ring in one variable).  Otherwise each nonzero quotient
    degree has a single representative, and x is prime up to the bound if
    and only if every pairwise product of representatives stays outside
    x*R.  The first vanishing product is returned as the witness pair; only
    pairs whose smaller degree is no sum of two support degrees are tested,
    which finds the same first pair (see the module docstring).

    With q_g the coordinate polynomial of g, each degree m gets a basis
    element w^j_m as its representative and one row lambda_m whose kernel
    in R_m is x*R_{m-d} (`_quotient_row`; proof under "One row per degree"
    in the module docstring).  A product of two representatives is
    w^(j_a+j_b) * carry(a, b), and it vanishes in the quotient exactly when
    its dot product with lambda_(a+b) is zero.  Nonzero multiples of q_g
    and of the carries give the same answer, so they enter as integers
    (see `section_ring`).

    The oracle owns its window.  It first extends the model to
    `generator_bound` (a no-op on any extended model), so that G, the top
    generator degree, is final; the window is eff = max(2 * G + d, bound).
    It then extends the model to eff, as a fresh build at that bound would
    be, and reports eff as the result's bound.  A degree d below 1 is
    refused with ValueError before any extension.
    """
    d = cand.degree
    if d < 1:
        raise ValueError("candidate degree is outside the model bound")
    model.extend(model.generator_bound)
    eff = max(2 * max(model.generator_degrees) + d, bound or 0)
    model.extend(eff)
    q_g = _candidate_coords(model, cand)
    qdims = _quotient_dims(model.dims, d, eff)
    for n in range(1, eff + 1):
        if qdims[n] > 1:
            return OracleResult(False, "dimension", (n,), eff)

    rows: list = [None] * (eff + 1)

    def row(m: int) -> tuple[int, list]:
        if rows[m] is None:
            rows[m] = _quotient_row(model, q_g, d, m)
        return rows[m]

    support = [n for n in range(1, eff + 1) if qdims[n] == 1]
    half = eff // 2  # a <= b and a + b <= eff give 2a <= eff
    # the sums of two support degrees up to half, as the set bits of an int
    low = sum(1 << n for n in support if n <= half)
    sums = 0
    for a1 in support:
        if 2 * a1 > half:
            break
        sums |= low << a1
    for i, a in enumerate(support):
        if a > half:
            break
        if sums >> a & 1:
            continue
        for b in support[i:]:
            if a + b > eff:
                break
            shift = row(a)[0] + row(b)[0]
            lam = row(a + b)[1][shift:]
            if not sum(c * l for c, l in zip(model.carry(a, b)[0], lam)):
                return OracleResult(False, "product", (a, b), eff)
    return OracleResult(True, "ok", None, eff)


def _model_for_oracle(D: QDivisor, bound: int | None) -> SectionRing:
    """The model of a `primes` job at `bound`, raised to B*; the oracle
    extends it to its window."""
    return SectionRing(D).extend(bound)


def _constructed(sdD: QDivisor, d: int, s: int, point: CurvePoint) -> PrimeCandidate:
    """The candidate of degree d whose function has divisor A = (P - sdD)/s,
    for the point P and sdD = s*d*D, with A."""
    A = QDivisor._checked(sdD.curve, [(point, Fraction(1, s))]) + sdD.scale(Fraction(-1, s))
    return PrimeCandidate(principal_function(A), d, A)


def construct_prime(D: QDivisor, degree: int, point: CurvePoint) -> PrimeCandidate:
    """Build the prime of degree d attached to a point P with d*D ~ P.

    Requires d*D integral of degree one and P outside the fractional support
    of D.  The section is g = principal_function(P - d*D); confirming it is
    left to `primality_oracle`.
    """
    dD = D.scale(degree)
    if not dD.is_integral() or dD.degree() != 1:
        raise NotLinearlyEquivalentError(
            f"{degree}*D is not an integral divisor of degree one"
        )
    point = D.curve.lift_point(point)
    if point in D.fractional_support():
        raise HypothesisViolatedError(
            "the point lies in the fractional support of the divisor"
        )
    return _constructed(dD, degree, 1, point)


def _family_sample_points(D: QDivisor, excluded, count: int = 2):
    """Deterministic rational sample points avoiding the excluded set."""
    samples = []
    v = 0
    while len(samples) < count:
        pt = D.curve.lift_point(FiniteP1(Fraction(v)))
        if pt not in excluded:
            samples.append(pt)
        v += 1
    return samples


def enumerate_primes(
    D: QDivisor, *, bound: int | None = None, oracle_bound: int | None = None
) -> list[PrimeVerdict]:
    """All degrees carrying homogeneous primes, with their witnesses.

    Empty unless deg D = 1/N where N is the common coefficient denominator
    (so that some multiple of D is an integral divisor of degree one).  Each
    reported verdict has been confirmed by the oracle: directly for a unique
    point, at sample points for a one-parameter family.
    """
    if D.degree() <= 0:
        raise NotAmpleError(f"divisor degree {D.degree()} is not positive")
    N = D.common_denominator()
    if D.degree() != Fraction(1, N):
        return []
    degrees = [d for d in range(1, N + 1) if N % d == 0 and math.gcd(d, N // d) == 1]
    model = _model_for_oracle(D, bound)
    ND = D.scale(N)
    verdicts: list[PrimeVerdict] = []
    for d in degrees:
        s = N // d
        if s == 1:
            excluded = D.fractional_support()
            samples = []
            for pt in _family_sample_points(D, excluded):
                cand = _constructed(ND, d, 1, pt)
                result = primality_oracle(model, cand, oracle_bound)
                if not result.is_prime:
                    raise QSectionError(
                        f"family sample at {pt!r} failed the oracle: {result.witness}"
                    )
                samples.append((pt, cand.g))
            verdicts.append(
                PrimeVerdict(
                    degree=d,
                    s=1,
                    kind="family",
                    excluded=tuple(sorted(excluded, key=point_sort_key)),
                    samples=tuple(samples),
                    oracle_bound=result.bound,
                )
            )
            continue
        frac_sD = D.scale(s).fractional_support()
        for pt, coeff in ND.entries:
            others_ok = all(
                (int(c) % s == 0) for q, c in ND.entries if q != pt
            )
            if int(coeff) % s != 1 or not others_ok:
                continue
            if pt in frac_sD:
                continue
            cand = _constructed(ND, d, s, pt)
            result = primality_oracle(model, cand, oracle_bound)
            if not result.is_prime:
                continue
            verdicts.append(
                PrimeVerdict(
                    degree=d,
                    s=s,
                    kind="unique",
                    point=pt,
                    generator=cand.g,
                    generator_divisor=cand.divisor,
                    oracle_bound=result.bound,
                )
            )
    return verdicts
