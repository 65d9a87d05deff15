"""Prime-element machinery: profiles, necessary conditions, oracle, search."""

import functools
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection import prime_elements
from qsection.errors import (
    BoundTooSmallError,
    BoundTooSmallWarning,
    HypothesisViolatedError,
    NotAmpleError,
    NotLinearlyEquivalentError,
    QSectionError,
)
from qsection.exact_arith import NumberField, Poly
from qsection.linalg import SpanBuilder
from qsection.p1 import RationalFunctionP1, divisor_of
from qsection.prime_elements import (
    OracleResult,
    PrimeCandidate,
    _candidate_coords,
    _model_for_oracle,
    _quotient_dims,
    construct_prime,
    enumerate_primes,
    necessary_check,
    primality_oracle,
    quotient_profile,
    veronese_transform,
)
from qsection.section_ring import Piece, SectionRing, build_section_ring

P1 = ProjectiveLine()


def d(entries):
    return QDivisor(P1, entries)


def rf(numer, denom=(1,)):
    return RationalFunctionP1(Poly([F(c) for c in numer]), Poly([F(c) for c in denom]))


D_HALF = d({FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
D_42 = d({P1_INFINITY: F(1, 2), FiniteP1(0): F(-1, 3), FiniteP1(1): F(-1, 7)})
D_SCROLL = d({FiniteP1(0): F(5, 7), P1_INFINITY: F(-4, 7)})

X_MINUS_2Y = PrimeCandidate(rf((2, -3, 1), (0, 1)), 2)   # (w-1)(w-2)/w
X_GEN = PrimeCandidate(rf((-1, 1)), 2)                   # w-1


@pytest.fixture(scope="module")
def model_half():
    return _model_for_oracle(D_HALF, 2, None, None)


class TestQuotientProfile:
    def test_prime_profile_has_all_dims_at_most_one(self, model_half):
        prof = quotient_profile(model_half, X_MINUS_2Y)
        assert prof.degree == 2
        assert all(v <= 1 for v in prof.dims)
        assert prof.s == 1

    def test_support_and_gcd(self, model_half):
        prof = quotient_profile(model_half, X_MINUS_2Y)
        assert prof.support()[:4] == (2, 3, 4, 5)

    def test_non_member_candidate_rejected(self, model_half):
        from qsection.errors import MembershipError

        with pytest.raises(MembershipError):
            quotient_profile(model_half, PrimeCandidate(rf((0, 1)), 2))

    def test_degree_out_of_range(self, model_half):
        with pytest.raises(ValueError):
            quotient_profile(model_half, PrimeCandidate(rf((1,)), 0))


class TestNecessaryCheck:
    def test_prime_candidate_passes_cleanly(self, model_half):
        rep = necessary_check(model_half, X_MINUS_2Y)
        assert rep.passed
        assert rep.gcd_ok and rep.scaled_divisor_ok and rep.degree_identity_ok
        assert rep.point == FiniteP1(F(2))
        assert not rep.point_in_fractional_support

    def test_x_generator_point_sits_in_fractional_support(self, model_half):
        rep = necessary_check(model_half, X_GEN)
        # the arithmetic conditions hold, but the point lands inside the
        # fractional support: the diagnostic flag is what separates it
        assert rep.passed
        assert rep.point == FiniteP1(F(0))
        assert rep.point_in_fractional_support

    def test_point_divisor_identity(self, model_half):
        rep = necessary_check(model_half, X_MINUS_2Y)
        expected = divisor_of(X_MINUS_2Y.g).scale(rep.s) + D_HALF.scale(rep.s * 2)
        assert rep.point_divisor == expected
        assert expected.degree() == 1

    def test_all_42_candidates_pass_gcd_and_degree(self):
        verdicts = enumerate_primes(D_42)
        model = _model_for_oracle(D_42, 42, None, None)
        for v in verdicts:
            if v.kind == "unique":
                cand = PrimeCandidate(v.generator, v.degree)
            else:
                cand = PrimeCandidate(v.samples[0][1], v.degree)
            rep = necessary_check(model, cand)
            assert rep.gcd_ok
            assert rep.degree_identity_ok
            assert rep.passed


class TestPrimalityOracle:
    def test_confirms_prime(self, model_half):
        res = primality_oracle(model_half, X_MINUS_2Y)
        assert res.is_prime
        assert res.kind == "ok"
        assert res.witness is None

    def test_refutes_x_generator_with_pair_witness(self, model_half):
        res = primality_oracle(model_half, X_GEN)
        assert not res.is_prime
        assert res.kind == "product"
        assert res.witness == (3, 3)

    def test_dimension_witness(self):
        # t^2 in the polynomial ring k[s,t]: quotient has 2-dim pieces
        D = d({FiniteP1(0): 1})
        model = _model_for_oracle(D, 2, None, None)
        cand = PrimeCandidate(rf((1,), (0, 0, 1)), 2)    # (1/w)^2 T^2
        res = primality_oracle(model, cand)
        assert not res.is_prime
        assert res.kind == "dimension"

    def test_bound_too_small(self, model_half):
        with pytest.raises(BoundTooSmallError):
            primality_oracle(model_half, X_MINUS_2Y, bound=5)

    def test_bound_exceeding_model_rejected(self, model_half):
        with pytest.raises(BoundTooSmallError):
            primality_oracle(model_half, X_MINUS_2Y, bound=model_half.bound + 1)

    def test_witness_product_lands_in_ideal(self, model_half):
        res = primality_oracle(model_half, X_GEN)
        a, b = res.witness
        # reconstruct the refutation: rep_a * rep_b must equal x * h
        # for a section h of degree a + b - 2
        prod_piece = model_half.piece(a + b)
        prod = rf((1, -2, 1), (0, 1)) * rf((1, -2, 1), (0, 1))
        # (w-1)^2/w squared is the canonical nonzero class in degrees 3+3
        vec = prod_piece.coords(prod)
        assert vec is not None


def reference_oracle(model, cand):
    """The oracle over all pairs, the reference for indecomposable pairs:
    every pair a <= b of support degrees with a + b in the default window is
    tested, in the order (a, b)."""
    d = cand.degree
    eff = 2 * max(model.generator_degrees) + d
    q_g = _candidate_coords(model, cand)
    qdims = _quotient_dims(model.dims, d, eff)
    for n in range(1, eff + 1):
        if qdims[n] > 1:
            return OracleResult(False, "dimension", (n,), eff)

    @functools.cache
    def image(m):
        piece = model.piece(m)
        span = SpanBuilder(piece.dim)
        if m >= d:
            base = Poly(q_g) * Poly(model.carry(d, m - d)[0])
            for j in range(model.piece(m - d).dim):
                span.add(piece.vector(base.coeffs, j))
        return span

    def representative(m):
        pivots = image(m).pivots
        return next(j for j in range(model.piece(m).dim) if j not in pivots)

    support = [n for n in range(1, eff + 1) if qdims[n] == 1]
    for a in support:
        for b in support:
            if b < a or a + b > eff:
                continue
            carry = model.carry(a, b)[0]
            vec = model.piece(a + b).vector(carry, representative(a) + representative(b))
            if image(a + b).contains(vec):
                return OracleResult(False, "product", (a, b), eff)
    return OracleResult(True, "ok", None, eff)


Q_SQRT2 = NumberField((-2, 0, 1))
SQRT2 = Q_SQRT2.gen()
POINT_COORDS = sorted({F(c, b) for c in range(-3, 4) for b in (1, 2)})


@st.composite
def oracle_cases(draw):
    """A model of a divisor of degree 1/q on 2-4 points and a candidate.

    The coefficients are k/q with q <= 6 and k != 0 of either sign, so that
    primes can exist and pair witnesses occur (R_q is never zero).  The
    candidate of degree d <= q is a basis element of R_d or a small
    combination of basis elements.  One draw in four puts the divisor on the
    line over Q(sqrt 2), with a point at sqrt(2) + c, q <= 2 and an oracle
    window <= 8.
    """
    over_nf = draw(st.integers(0, 3)) == 0
    npts = draw(st.integers(2, 4))
    coords = draw(st.permutations(POINT_COORDS))[:npts]
    points = [FiniteP1(c) for c in coords]
    if draw(st.booleans()):
        points[-1] = P1_INFINITY
    if over_nf:
        points[0] = FiniteP1(SQRT2 + coords[0])
    q = draw(st.integers(1, 2 if over_nf else 6))
    ks = [draw(st.sampled_from([k for k in range(-q, q + 1) if k])) for _ in points[1:]]
    ks.append(1 - sum(ks))
    assume(ks[-1])
    curve = ProjectiveLine(Q_SQRT2) if over_nf else P1
    D = QDivisor(curve, [(pt, F(k, q)) for pt, k in zip(points, ks)])
    degree = draw(st.sampled_from([n for n in range(1, q + 1) if Piece(D, n).dim]))
    piece = Piece(D, degree)
    if over_nf:
        assume(2 * SectionRing(D).generator_bound + degree <= 8)
    if draw(st.booleans()):
        coeffs = [0] * piece.dim
        coeffs[draw(st.integers(0, piece.dim - 1))] = 1
    else:
        coeffs = [draw(st.integers(-2, 2)) for _ in range(piece.dim)]
        if over_nf:
            coeffs = [c + draw(st.integers(-1, 1)) * SQRT2 for c in coeffs]
        assume(any(coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundTooSmallWarning)
        model = _model_for_oracle(D, degree, None, None)
    return model, PrimeCandidate(piece.function(Poly(coeffs)), degree)


class TestIndecomposablePairs:
    @given(oracle_cases())
    @settings(max_examples=200)
    def test_oracle_matches_all_pairs(self, case):
        model, cand = case
        assert primality_oracle(model, cand) == reference_oracle(model, cand)


class TestModelForOracle:
    def test_builds_once_and_extends_to_the_window(self, monkeypatch):
        builds = []

        def counting_build(D, bound=None):
            builds.append(bound)
            return build_section_ring(D, bound)

        monkeypatch.setattr(prime_elements, "build_section_ring", counting_build)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundTooSmallWarning)
            model = _model_for_oracle(D_HALF, 2, 3, None)
        assert builds == [3]
        # window 2 * 3 + 2: generators of degree 3 sit at the first bound
        assert model.bound == 8
        assert {str(w.message) for w in caught} == {
            "generators found at the bound 3; raise the bound to certify completeness"
        }
        fresh = build_section_ring(D_HALF, 8)
        assert model.dims == fresh.dims
        assert model.generators == fresh.generators


class TestConstructPrime:
    def test_half_integer_example(self):
        cand = construct_prime(D_HALF, 2, FiniteP1(2))
        assert cand.degree == 2
        assert divisor_of(cand.g) == d(
            {FiniteP1(1): 1, FiniteP1(2): 1, FiniteP1(0): -1, P1_INFINITY: -1}
        )

    def test_scroll_degree_seven(self):
        cand = construct_prime(D_SCROLL, 7, FiniteP1(1))
        assert cand.g == rf((-1, 1), (0, 0, 0, 0, 0, 1))   # (w-1)/w^5
        assert divisor_of(cand.g) == d(
            {FiniteP1(1): 1, FiniteP1(0): -5, P1_INFINITY: 4}
        )

    def test_wrong_degree_rejected(self):
        with pytest.raises(NotLinearlyEquivalentError):
            construct_prime(D_HALF, 3, FiniteP1(2))

    def test_point_in_fractional_support_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            construct_prime(D_HALF, 2, FiniteP1(0))

    def test_unverified_construction_skips_oracle(self):
        cand = construct_prime(D_HALF, 2, FiniteP1(3), verify=False)
        assert divisor_of(cand.g).coeff(FiniteP1(F(3))) == 1


class TestEnumerate:
    def test_half_integer_family_only(self):
        verdicts = enumerate_primes(D_HALF)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.degree == 2 and v.kind == "family" and v.s == 1
        assert set(v.excluded) == {FiniteP1(F(0)), FiniteP1(F(1)), P1_INFINITY}
        assert len(v.samples) == 2

    def test_42_degrees_and_witness_divisors(self):
        verdicts = enumerate_primes(D_42)
        by_degree = {v.degree: v for v in verdicts}
        assert sorted(by_degree) == [6, 14, 21, 42]
        assert by_degree[6].kind == "unique"
        assert by_degree[6].point == FiniteP1(F(1))
        assert by_degree[6].generator_divisor == d(
            {FiniteP1(0): 2, FiniteP1(1): 1, P1_INFINITY: -3}
        )
        assert by_degree[14].point == FiniteP1(F(0))
        assert by_degree[14].generator_divisor == d(
            {FiniteP1(0): 5, FiniteP1(1): 2, P1_INFINITY: -7}
        )
        assert by_degree[21].point == P1_INFINITY
        assert by_degree[21].generator_divisor == d(
            {FiniteP1(0): 7, FiniteP1(1): 3, P1_INFINITY: -10}
        )
        fam = by_degree[42]
        assert fam.kind == "family"
        assert set(fam.excluded) == {FiniteP1(F(0)), FiniteP1(F(1)), P1_INFINITY}
        # samples realize w^14 (w-1)^6 (w-lambda) for lambda outside {0, 1}
        for pt, g in fam.samples:
            gdiv = divisor_of(g)
            assert gdiv.coeff(FiniteP1(F(0))) == 14
            assert gdiv.coeff(FiniteP1(F(1))) == 6
            assert gdiv.coeff(pt) == 1

    def test_polynomial_ring_family_excludes_nothing(self):
        verdicts = enumerate_primes(d({FiniteP1(0): 1}))
        assert len(verdicts) == 1
        assert verdicts[0].degree == 1
        assert verdicts[0].kind == "family"
        assert verdicts[0].excluded == ()

    def test_degree_not_reciprocal_of_denominator_yields_nothing(self):
        # degree 1 but common denominator 2: no degree can satisfy the
        # linear-equivalence constraint, so the search is provably empty
        D = d({FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2)})
        assert enumerate_primes(D) == []

    def test_non_ample_rejected(self):
        with pytest.raises(NotAmpleError):
            enumerate_primes(d({FiniteP1(0): -1}))

    def test_oracle_bound_extends_model(self):
        verdicts = enumerate_primes(D_HALF, oracle_bound=10)
        assert verdicts[0].oracle_bound == 10


class TestVeronese:
    def test_scales_divisor(self):
        assert veronese_transform(D_HALF, 2) == D_HALF.scale(2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            veronese_transform(D_HALF, 0)

    def test_dims_agree_with_multiples(self):
        from qsection.section_ring import graded_dimension

        V = veronese_transform(D_42, 7)
        for n in range(6):
            assert graded_dimension(V, n) == graded_dimension(D_42, 7 * n)
