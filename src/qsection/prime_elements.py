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
  polynomials and the model's carry polynomials (see `section_ring`).

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
both the verdict and the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .divisors import CurvePoint, FiniteP1, QDivisor, point_sort_key
from .errors import (
    BoundTooSmallError,
    HypothesisViolatedError,
    NegativeDimError,
    NotAmpleError,
    NotIrredundantError,
    NotLinearlyEquivalentError,
    QSectionError,
    ZeroCandidateError,
)
from .exact_arith import convolve
from .linalg import SpanBuilder, primitive_multiple
from .p1 import RationalFunctionP1, divisor_of, principal_function
from .section_ring import SectionRing, build_section_ring


@dataclass(frozen=True)
class PrimeCandidate:
    """A homogeneous element g*T^degree of the model."""

    g: RationalFunctionP1
    degree: int


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


def _candidate_coords(model: SectionRing, cand: PrimeCandidate) -> list:
    """A multiple of the candidate's coordinate polynomial in the piece of its
    degree: primitive ints when rational, lowest degree first, last entry
    nonzero."""
    if cand.g.is_zero:
        raise ZeroCandidateError("the candidate is the zero function, which is never prime")
    q = primitive_multiple(model.piece(cand.degree).member(cand.g))
    while not q[-1]:
        q.pop()
    return q


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
    """Evaluate the necessary arithmetic conditions for cand to be prime."""
    prof = quotient_profile(model, cand)
    d, s = cand.degree, prof.s
    D = model.divisor
    sdD = D.scale(s * d)
    scaled_ok = sdD.is_integral() and sdD.degree() == 1
    degree_ok = D.degree() == Fraction(1, s * d)
    point_div = divisor_of(cand.g, D.curve).scale(s) + sdD
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

    With q_g the coordinate polynomial of g, x*R_{m-d} is spanned by the
    shifts w^j * q_g * carry(d, m-d); the representative in degree a is a
    basis element w^j_a, so a product of two is w^(j_a+j_b) * carry(a, b).
    Only spans and membership are asked of these, so q_g and the carries
    enter as integer multiples (see `section_ring`).
    """
    d = cand.degree
    if not model.generators:
        raise BoundTooSmallError("model has no generators")
    needed = 2 * max(model.generator_degrees) + d
    eff = needed if bound is None else bound
    if eff < needed:
        raise BoundTooSmallError(
            f"oracle bound {eff} is below the stabilized window {needed}"
        )
    if eff > model.bound:
        raise BoundTooSmallError(
            f"oracle bound {eff} exceeds the model bound {model.bound}; rebuild larger"
        )
    q_g = _candidate_coords(model, cand)
    qdims = _quotient_dims(model.dims, d, eff)
    for n in range(1, eff + 1):
        if qdims[n] > 1:
            return OracleResult(False, "dimension", (n,), eff)

    image_cache: dict[int, SpanBuilder] = {}

    def image(m: int) -> SpanBuilder:
        if m not in image_cache:
            piece = model.piece(m)
            span = SpanBuilder(piece.dim)
            if m >= d:
                base = convolve(model.carry(d, m - d)[0], q_g)
                for j in range(model.piece(m - d).dim):
                    span.add(piece.vector(base, j))
            if piece.dim - span.rank != qdims[m]:
                raise NegativeDimError(
                    f"inconsistent quotient dimension in degree {m}"
                )
            image_cache[m] = span
        return image_cache[m]

    rep_cache: dict[int, int] = {}

    def representative(m: int) -> int:
        """The basis column of the quotient representative in degree m."""
        if m not in rep_cache:
            pivots = set(image(m).pivots)
            rep_cache[m] = next(j for j in range(model.piece(m).dim) if j not in pivots)
        return rep_cache[m]

    support = [n for n in range(1, eff + 1) if qdims[n] == 1]
    in_support = set(support)
    for a in support:
        if any(a - a1 in in_support for a1 in support if 2 * a1 <= a):
            continue
        for b in support:
            if b < a or a + b > eff:
                continue
            carry = model.carry(a, b)[0]
            vec = model.piece(a + b).vector(carry, representative(a) + representative(b))
            if image(a + b).contains(vec):
                return OracleResult(False, "product", (a, b), eff)
    return OracleResult(True, "ok", None, eff)


def _model_for_oracle(D: QDivisor, degree: int, bound: int | None, oracle_bound: int | None):
    """Build a model whose bound accommodates the oracle window for `degree`.

    When the window exceeds the first bound the model is extended in place,
    which gives the same model as building at the window from scratch.
    """
    model = build_section_ring(D, bound)
    if not model.generators:
        raise NotAmpleError("no generators found; the divisor supports no sections")
    needed = 2 * max(model.generator_degrees) + degree
    target = max(needed, oracle_bound or 0)
    if model.bound < target:
        model.extend(target)
    return model


def construct_prime(
    D: QDivisor,
    degree: int,
    point: CurvePoint,
    *,
    bound: int | None = None,
    oracle_bound: int | None = None,
    verify: bool = True,
) -> PrimeCandidate:
    """Build the prime of degree d attached to a point P with d*D ~ P.

    Requires d*D integral of degree one and P outside the fractional support
    of D.  The section is g = principal_function(P - d*D); when `verify` is
    set the constructed candidate is confirmed with the oracle and the
    quotient grading is checked to be irredundant (s = 1).
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
    P_div = QDivisor(D.curve, {point: 1})
    g = principal_function(P_div - dD)
    cand = PrimeCandidate(g, degree)
    if verify:
        model = _model_for_oracle(D, degree, bound, oracle_bound)
        result = primality_oracle(model, cand, oracle_bound)
        if not result.is_prime:
            raise QSectionError(
                f"constructed candidate failed the oracle with witness {result.witness}"
            )
        prof = quotient_profile(model, cand)
        if prof.s != 1:
            raise QSectionError(
                f"constructed candidate has reducible quotient grading (s={prof.s})"
            )
    return cand


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
    model = _model_for_oracle(D, N, bound, oracle_bound)
    if not model.irredundant:
        raise NotIrredundantError("the grading is supported on a proper subgroup")
    ND = D.scale(N)
    verdicts: list[PrimeVerdict] = []
    for d in sorted(k for k in range(1, N + 1) if N % k == 0):
        s = N // d
        if math.gcd(d, s) != 1:
            continue
        window = 2 * max(model.generator_degrees) + d
        eff_bound = min(model.bound, max(window, oracle_bound or 0))
        if s == 1:
            excluded = D.fractional_support()
            samples = []
            for pt in _family_sample_points(D, excluded):
                P_div = QDivisor(D.curve, {pt: 1})
                g = principal_function(P_div - ND)
                result = primality_oracle(model, PrimeCandidate(g, d), eff_bound)
                if not result.is_prime:
                    raise QSectionError(
                        f"family sample at {pt!r} failed the oracle: {result.witness}"
                    )
                samples.append((pt, g))
            verdicts.append(
                PrimeVerdict(
                    degree=d,
                    s=1,
                    kind="family",
                    excluded=tuple(sorted(excluded, key=point_sort_key)),
                    samples=tuple(samples),
                    oracle_bound=eff_bound,
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
            P_div = QDivisor(D.curve, {pt: 1})
            A = (P_div - ND).scale(Fraction(1, s))
            g = principal_function(A)
            cand = PrimeCandidate(g, d)
            result = primality_oracle(model, cand, eff_bound)
            if not result.is_prime:
                continue
            verdicts.append(
                PrimeVerdict(
                    degree=d,
                    s=s,
                    kind="unique",
                    point=pt,
                    generator=g,
                    generator_divisor=divisor_of(g, D.curve),
                    oracle_bound=eff_bound,
                )
            )
    return verdicts
