"""Prime-element machinery: profiles, necessary conditions, oracle, search."""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cold_build import cold_build
from dense_span import dense
from qsection.divisors import ECAffine, FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection import prime_elements
from qsection.elliptic import WeierstrassCurve
from qsection.errors import (
    HypothesisViolatedError,
    MembershipError,
    NotAmpleError,
    NotLinearlyEquivalentError,
    QSectionError,
    ZeroCandidateError,
)
from qsection.exact_arith import NumberField, Poly, convolve, primitive_multiple
from qsection.linalg import SpanBuilder
from qsection.p1 import RationalFunctionP1, divisor_of
from qsection.prime_elements import (
    OracleResult,
    PrimeCandidate,
    _candidate_coords,
    _model_for_oracle,
    _quotient_dims,
    _quotient_row,
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
    """The half-integer model at bound 8, the oracle window of degree 2
    (2 * 3 + 2), so no oracle call of a degree-2 candidate grows it."""
    return build_section_ring(D_HALF, 8)


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
        model = _model_for_oracle(D_42, None)
        for v in verdicts:
            if v.kind == "unique":
                cand = PrimeCandidate(v.generator, v.degree)
            else:
                cand = PrimeCandidate(v.samples[0][1], v.degree)
            # the oracle grows the model to the window first, as `primes check` does
            assert primality_oracle(model, cand).bound == v.oracle_bound
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
        model = build_section_ring(D)
        cand = PrimeCandidate(rf((1,), (0, 0, 1)), 2)    # (1/w)^2 T^2
        res = primality_oracle(model, cand)
        assert not res.is_prime
        assert res.kind == "dimension"

    def test_bound_too_small(self, model_half):
        """A bound below the window 2 * 3 + 2 is raised to it."""
        res = primality_oracle(model_half, X_MINUS_2Y, bound=5)
        assert res == primality_oracle(model_half, X_MINUS_2Y)
        assert res.bound == model_half.bound == 8

    def test_model_below_the_generator_bound_is_grown(self):
        """B* = 5: a model never extended (bound 0) holds no generator; the
        oracle extends it to B*, reads the window 2 * 5 + 1 from the
        generators in degrees 1, 1, 5, and extends it to the window."""
        D = d({FiniteP1(-1): F(6, 5)})
        model = SectionRing(D)
        res = primality_oracle(model, PrimeCandidate(rf((1,), (1, 1)), 1))
        fresh = cold_build(D, 11)
        assert res.bound == model.bound == fresh.bound == 11
        assert model.generator_degrees == [1, 1, 5]
        assert model.dims == fresh.dims and model.generators == fresh.generators

    def test_bound_exceeding_model_grows_it(self):
        model = build_section_ring(D_HALF, 8)
        res = primality_oracle(model, X_MINUS_2Y, bound=12)
        assert res.bound == model.bound == 12
        assert res == reference_oracle(model, X_MINUS_2Y, 12)
        assert model.dims == build_section_ring(D_HALF, 12).dims

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_is_refused_before_any_extension(self, degree):
        """Degree 0 would make every quotient dimension dim R_n - dim R_n = 0
        and call the constant 1 prime; degree -1 would read past the dims."""
        for model in (SectionRing(D_HALF), build_section_ring(D_HALF, 8)):
            bound = model.bound
            with pytest.raises(ValueError, match="outside the model bound"):
                primality_oracle(model, PrimeCandidate(rf((1,)), degree))
            assert model.bound == bound

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


def reference_oracle(model, cand, bound=None):
    """The oracle over all pairs, with x*R_{m-d} spanned in every degree: the
    reference for indecomposable pairs and for one row per degree.  Every
    pair a <= b of support degrees with a + b in the window (`bound`, or the
    default window) is tested, in the order (a, b)."""
    d = cand.degree
    eff = bound or 2 * max(model.generator_degrees) + d
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
            if not image(a + b).reduce(vec):
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
    return _model_for_oracle(D, None), PrimeCandidate(piece.function(Poly(coeffs)), degree)


class TestIndecomposablePairs:
    @given(oracle_cases())
    @settings(max_examples=200)
    def test_oracle_matches_all_pairs(self, case):
        model, cand = case
        res = primality_oracle(model, cand)  # extends the model to its window
        assert res == reference_oracle(model, cand)


ORACLE_POINTS = (FiniteP1(0), FiniteP1(1), FiniteP1(-1), FiniteP1(F(1, 2)), FiniteP1(3), P1_INFINITY)


@st.composite
def oracle_model_cases(draw):
    """An ample divisor on 1-4 points with B* at most 24, a bound from 1 to
    B* + 1, and a candidate degree 1 or 2."""
    points = draw(st.lists(st.sampled_from(ORACLE_POINTS), min_size=1, max_size=4, unique=True))
    coeffs = [
        F(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 6))) for _ in points
    ]
    assume(sum(coeffs) > 0)
    D = d(dict(zip(points, coeffs)))
    top = SectionRing(D).generator_bound
    assume(top <= 24)
    return D, draw(st.integers(1, top + 1)), draw(st.sampled_from([1, 2]))


class TestModelForOracle:
    """`_model_for_oracle` builds the model of a `primes` job at its bound,
    raised to B*; `primality_oracle` extends it to the window."""

    def test_builds_once_and_extends_to_the_window(self, monkeypatch):
        models, bounds = [], []

        class CountingRing(SectionRing):
            def __init__(self, D):
                super().__init__(D)
                models.append(self)

            def extend(self, bound=None):
                bounds.append(bound)
                return super().extend(bound)

        monkeypatch.setattr(prime_elements, "SectionRing", CountingRing)
        model = _model_for_oracle(D_HALF, 3)
        res = primality_oracle(model, PrimeCandidate(X_MINUS_2Y.g, 2))
        assert models == [model]
        # the requested bound, the oracle's B* (a no-op) and its window
        assert bounds == [3, 3, 8]
        # window 2 * 3 + 2: generators of degree 3 sit at B* = 3
        assert model.bound == res.bound == 8
        fresh = cold_build(D_HALF, 8)
        assert model.dims == fresh.dims
        assert model.generators == fresh.generators

    @pytest.mark.parametrize("bound", [1, 2])
    def test_extends_until_its_own_window_fits(self, bound):
        """Bound 1 holds no generator (R_1 = 0) and bound 2 misses the one in
        degree 3; both are extended to generator_bound = 3, whose generators
        give a degree-2 candidate the window 2 * 3 + 2, above the bound 7
        asked of the oracle."""
        D = d({FiniteP1(0): F(-3, 2), FiniteP1(1): F(-3, 2), P1_INFINITY: F(7, 2)})
        model = _model_for_oracle(D, bound)
        assert model.generator_degrees == [2, 2, 3] and model.bound == 3
        cand = PrimeCandidate(model.piece(2).function(Poly([1])), 2)
        assert primality_oracle(model, cand, 7).bound == model.bound == 8

    @given(oracle_model_cases())
    @settings(max_examples=100)
    def test_every_bound_gives_the_model_at_the_generator_bound(self, case):
        """From any bound, the generators are those of the model built at
        B*, which holds every generator."""
        D, bound, _ = case
        model = _model_for_oracle(D, bound)
        fresh = cold_build(D, model.generator_bound)
        assert model.generators == fresh.generators
        assert model.bound == max(bound, fresh.bound)

    @given(oracle_model_cases(), st.data())
    @settings(max_examples=100)
    def test_the_oracle_raises_every_bound_to_its_window(self, case, data):
        """For b from 1 to window + 4, the oracle on a model never extended
        reports the bound max(window, b), leaves the model equal to a fresh
        build at that bound, and agrees with the span reference there."""
        D, _, degree = case
        piece = Piece(D, degree)
        assume(piece.dim)
        window = 2 * max(build_section_ring(D, 1).generator_degrees) + degree
        b = data.draw(st.integers(1, window + 4), label="b")
        j = data.draw(st.integers(0, piece.dim - 1), label="column")
        cand = PrimeCandidate(piece.function(Poly([0] * j + [1])), degree)
        model = SectionRing(D)
        res = primality_oracle(model, cand, b)
        assert res.bound == max(window, b)
        fresh = cold_build(D, res.bound)
        assert (model.bound, model.dims, model.generators) == (
            fresh.bound, fresh.dims, fresh.generators,
        )
        assert res == reference_oracle(model, cand, res.bound)


@st.composite
def oracle_window_cases(draw):
    """A model, a candidate with random coordinates, and a window from the
    default one up to the model bound.

    The divisors are drawn as in `oracle_model_cases` (1-4 points,
    numerators -7..7 over 1..6, B* <= 24), except that one coefficient sets
    deg D to a/q with a <= 3 and q <= 12: most divisors of larger degree
    end in a dimension witness, and these also reach products.  Some have
    R_1 = 0 and take the degree d = 2; otherwise d is 1 or 2.  The model is
    built from a bound up to B* + 8 and may be extended up to 6 degrees past
    the default window.  One draw in four moves the first finite point c to
    sqrt(2) + c on the line over Q(sqrt 2), with B* <= 6.
    """
    points = draw(st.lists(st.sampled_from(ORACLE_POINTS), min_size=1, max_size=4, unique=True))
    coeffs = [
        F(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 6))) for _ in points[1:]
    ]
    coeffs.insert(0, F(draw(st.integers(1, 3)), draw(st.integers(1, 12))) - sum(coeffs))
    assume(coeffs[0])
    entries = list(zip(points, coeffs))
    curve = P1
    if draw(st.integers(0, 3)) == 0:
        i = next((i for i, (pt, _) in enumerate(entries) if pt != P1_INFINITY), None)
        assume(i is not None)
        entries[i] = (FiniteP1(SQRT2 + entries[i][0].coord), entries[i][1])
        curve = ProjectiveLine(Q_SQRT2)
    D = QDivisor(curve, entries)
    top = SectionRing(D).generator_bound
    assume(top <= (6 if curve.field else 24))
    degree = draw(st.sampled_from([1, 2])) if Piece(D, 1).dim else 2
    piece = Piece(D, degree)
    assume(piece.dim)
    model = _model_for_oracle(D, draw(st.integers(1, top + 8)))
    default = 2 * max(model.generator_degrees) + degree
    model.extend(default + draw(st.integers(0, 6)))
    coeffs = [draw(st.integers(-2, 2)) for _ in range(piece.dim)]
    if curve.field:
        coeffs = [c + draw(st.integers(-1, 1)) * SQRT2 for c in coeffs]
    assume(any(coeffs))
    window = draw(st.integers(default, model.bound))
    return model, PrimeCandidate(piece.function(Poly(coeffs)), degree), window


class TestOracleWindows:
    @given(oracle_window_cases())
    @settings(max_examples=200)
    def test_oracle_matches_the_span_reference(self, case):
        model, cand, window = case
        assert primality_oracle(model, cand, window) == reference_oracle(model, cand, window)


class TestQuotientRow:
    @given(oracle_window_cases())
    @settings(max_examples=100)
    def test_one_row_is_the_image_of_x(self, case):
        """deg(q_g * carry(d, m - d)) <= qdims[m] whenever R_{m-d} != 0, and in
        every degree of quotient dimension one the row kills x*R_{m-d}, is
        nonzero, and the representative is the first column off the span's
        pivots."""
        model, cand, _ = case
        d = cand.degree
        q_g = _candidate_coords(model, cand)
        qdims = _quotient_dims(model.dims, d, model.bound)
        for m in range(1, model.bound + 1):
            k = model.piece(m - d).dim if m >= d else 0
            shifts = []
            if k:
                base = convolve(model.carry(d, m - d)[0], q_g)
                assert len(base) - 1 <= qdims[m]
                shifts = [model.piece(m).vector(base, j) for j in range(k)]
            if qdims[m] != 1:
                continue
            span = SpanBuilder(model.piece(m).dim)
            for vec in shifts:
                span.add(vec)
            j, lam = _quotient_row(model, q_g, d, m)
            assert j == min(set(range(model.piece(m).dim)) - set(span.pivots))
            assert any(lam)
            assert all(not sum(u * lam[k] for k, u in vec.items()) for vec in shifts)

    def test_half_integer_ring_has_an_empty_image_in_degree_three(self, model_half):
        """At d = 2, R_1 = 0, so x*R_1 is zero in degree 3, which lies in the
        quotient support: the row is [1] and the representative w^0.  The
        verdicts of both candidates are pinned in `TestPrimalityOracle`."""
        assert model_half.piece(1).dim == 0
        for cand in (X_GEN, X_MINUS_2Y):
            q_g = _candidate_coords(model_half, cand)
            assert 3 in quotient_profile(model_half, cand).support()
            assert _quotient_row(model_half, q_g, 2, 3) == (0, [1])


def counted_coords(monkeypatch) -> list:
    """Patch `Piece.coords` to record each call; returns the record."""
    calls = []
    coords = Piece.coords

    def wrapper(piece, f):
        calls.append(piece)
        return coords(piece, f)

    monkeypatch.setattr(Piece, "coords", wrapper)
    return calls


class TestCandidateRead:
    """`_candidate_coords` reads a candidate into a piece once and keeps the
    coordinates on the candidate, with the piece they were read in."""

    def test_profile_and_oracle_read_once(self, model_half, monkeypatch):
        calls = counted_coords(monkeypatch)
        cand = PrimeCandidate(X_MINUS_2Y.g, 2)
        quotient_profile(model_half, cand)
        assert primality_oracle(model_half, cand).is_prime
        assert calls == [model_half.piece(2)]

    def test_a_read_hashes_no_piece(self, model_half, monkeypatch):
        # the kept read is recognized by identity; Piece.__hash__ hashes the
        # whole divisor
        hashes = []
        piece_hash = Piece.__hash__
        monkeypatch.setattr(Piece, "__hash__", lambda piece: hashes.append(piece) or piece_hash(piece))
        cand = PrimeCandidate(X_MINUS_2Y.g, 2)
        quotient_profile(model_half, cand)
        assert primality_oracle(model_half, cand).is_prime
        assert hashes == []

    def test_each_model_gets_its_own_coordinates(self, model_half):
        poly_ring = build_section_ring(d({P1_INFINITY: 1}), 2)
        cand = PrimeCandidate(rf((-1, 1)), 2)
        cases = ((model_half, [0, 1]), (poly_ring, [-1, 1]), (model_half, [0, 1]))
        for model, expected in cases:
            piece = model.piece(2)
            q = primitive_multiple(dense(piece.member(cand.g), piece.dim))
            assert q[:len(expected)] == expected and not any(q[len(expected):])
            assert _candidate_coords(model, cand) == expected

    def test_refusals_repeat_and_store_nothing(self, model_half, monkeypatch):
        calls = counted_coords(monkeypatch)
        outsider = PrimeCandidate(rf((0, 1)), 2)
        zero = PrimeCandidate(rf((0,)), 2)
        for _ in range(2):
            with pytest.raises(MembershipError):
                _candidate_coords(model_half, outsider)
            with pytest.raises(ZeroCandidateError):
                _candidate_coords(model_half, zero)
        assert len(calls) == 2

    def test_a_read_candidate_equals_a_fresh_one(self, model_half):
        read, fresh = PrimeCandidate(X_GEN.g, 2), PrimeCandidate(X_GEN.g, 2)
        _candidate_coords(model_half, read)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)


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
        cand = construct_prime(D_HALF, 2, FiniteP1(3))
        assert divisor_of(cand.g).coeff(FiniteP1(F(3))) == 1


@st.composite
def prime_constructions(draw):
    """D = a/N [0] + b/N [1] + (1 - a - b)/N [inf] of degree 1/N, and a
    point outside its support, as in the acceptance suite."""
    N = draw(st.sampled_from([2, 3, 4]))
    a = draw(st.integers(-3, 3))
    b = draw(st.integers(-3, 3))
    D = d({FiniteP1(0): F(a, N), FiniteP1(1): F(b, N), P1_INFINITY: F(1 - a - b, N)})
    return D, N, FiniteP1(F(draw(st.integers(2, 5))))


class TestConstructedPrimes:
    @given(prime_constructions())
    @settings(max_examples=200)
    def test_confirmed_constructions_have_an_irredundant_quotient(self, drawn):
        """An oracle-confirmed construction has quotient grading s = 1, and
        its reported divisor is the divisor of its function."""
        D, N, point = drawn
        cand = construct_prime(D, N, point)
        assert cand.divisor == divisor_of(cand.g)
        model = _model_for_oracle(D, None)
        assume(primality_oracle(model, cand).is_prime)
        assert quotient_profile(model, cand).s == 1


@st.composite
def merged_constructions(draw):
    """D = k [2] + a/N [0] + b/N [1] + (1 - a - b - N k)/N [inf] of degree
    1/N on the line over Q or Q(sqrt 2), and a point P outside its
    fractional support; P = 2 with k != 0 lies in the integral support, and
    for N = 1 the constructed divisor can vanish there."""
    N = draw(st.sampled_from([1, 2, 3, 4]))
    k, a, b = (draw(st.integers(-2, 2)) for _ in range(3))
    curve = draw(st.sampled_from([P1, ProjectiveLine(Q_SQRT2)]))
    D = QDivisor(curve, {FiniteP1(2): k, FiniteP1(0): F(a, N), FiniteP1(1): F(b, N),
                         P1_INFINITY: F(1 - a - b - N * k, N)})
    points = [FiniteP1(F(c)) for c in range(6)] + [P1_INFINITY]
    if curve.field is not None:
        points.append(FiniteP1(SQRT2))
    point = curve.lift_point(draw(st.sampled_from(points)))
    assume(point not in D.fractional_support())
    return D, N, point


class TestConstructedDivisors:
    """The prime layer builds the divisor (P - s*d*D)/s without the
    constructor's checks; the validating constructor is the reference."""

    @given(merged_constructions())
    @settings(max_examples=200)
    def test_construct_prime_divisor_equals_the_constructor(self, drawn):
        D, N, point = drawn
        cand = construct_prime(D, N, point)
        dD = D.scale(N)
        assert cand.divisor == QDivisor(D.curve, [(point, 1), *((q, -c) for q, c in dD.entries)])

    def test_enumerated_generator_divisors_equal_the_constructor(self):
        ND = D_42.scale(42)
        unique = [v for v in enumerate_primes(D_42) if v.kind == "unique"]
        assert sorted(v.s for v in unique) == [2, 3, 7]
        for v in unique:
            A = QDivisor(P1, [(v.point, F(1, v.s)), *((q, -c / v.s) for q, c in ND.entries)])
            assert v.generator_divisor == A

    def test_off_curve_weierstrass_point_refused_by_the_h0_step(self):
        """A Weierstrass point never reaches the constructor: the line-only
        H0 step refuses it, on the curve or off it."""
        curve = WeierstrassCurve(0, 1)
        D = QDivisor(curve, {ECAffine(F(2), F(3)): 1})
        for point in (ECAffine(F(0), F(1)), ECAffine(F(1), F(1))):
            with pytest.raises(ValueError, match="projective line"):
                construct_prime(D, 1, point)


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
