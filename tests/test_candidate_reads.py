"""The two reads of a prime candidate in coordinates, against their oracles.

A constructed candidate is written down from its divisor A, with no
division (`_divisor_coords`); `Piece.member` is the reference.  The divisor
of any candidate is read off its coordinate polynomial q
(`_candidate_divisor`); `p1.divisor_of`, which factors g itself, is the
reference.  Both references stay in the public API.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsection.cli import main
from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.errors import BoundTooSmallError, IrrationalZerosError, MembershipError
from qsection.exact_arith import NumberField, Poly, primitive_multiple
from qsection.p1 import RationalFunctionP1, divisor_of
from qsection.prime_elements import (
    PrimeCandidate,
    _candidate_coords,
    _candidate_divisor,
    _constructed,
    construct_prime,
    necessary_check,
    primality_oracle,
)
from qsection.section_ring import Piece, SectionRing

P1 = ProjectiveLine()
Q_SQRT2 = NumberField((-2, 0, 1))
SQRT2 = Q_SQRT2.gen()
LINE_SQRT2 = ProjectiveLine(Q_SQRT2)
POINT_COORDS = sorted({F(c, b) for c in range(-3, 4) for b in (1, 2)})


@st.composite
def thin_divisors(draw):
    """(D, N): a divisor of degree 1/N on 2-4 points, with coefficients k/N
    (k != 0, N <= 6), at infinity in about half of the draws, and on the
    line over Q(sqrt 2) (with rational points, lifted) in about a quarter.

    N is the common denominator of D: the coefficients sum to 1/N, whose
    denominator divides theirs."""
    over_nf = draw(st.integers(0, 3)) == 0
    npts = draw(st.integers(2, 4))
    points = [FiniteP1(c) for c in draw(st.permutations(POINT_COORDS))[:npts]]
    if draw(st.booleans()):
        points[-1] = P1_INFINITY
    N = draw(st.integers(1, 4 if over_nf else 6))
    ks = [draw(st.sampled_from([k for k in range(-N, N + 1) if k])) for _ in points[1:]]
    ks.append(1 - sum(ks))
    assume(ks[-1])
    D = QDivisor(LINE_SQRT2 if over_nf else P1, [(pt, F(k, N)) for pt, k in zip(points, ks)])
    return D, N


@st.composite
def constructed_candidates(draw):
    """(model, candidate) with the candidate built as the primes jobs build
    theirs: in a degree d | N with gcd(d, N/d) = 1, s = N/d, at a point of
    N*D that meets the congruences when s > 1, and for s = 1 at a point
    outside the fractional support (a support point, infinity, a point off
    the support, or sqrt 2 over Q(sqrt 2))."""
    D, N = draw(thin_divisors())
    ND = D.scale(N)
    unique = [
        (N // s, s, pt)
        for s in range(2, N + 1)
        if N % s == 0 and F(N // s, s).denominator == s
        for pt, c in ND.entries
        if int(c) % s == 1 and all(int(e) % s == 0 for q, e in ND.entries if q != pt)
        and pt not in D.scale(s).fractional_support()
    ]
    if unique and draw(st.booleans()):
        d, s, point = draw(st.sampled_from(unique))
    else:
        d, s = N, 1
        points = [*D.points(), P1_INFINITY, FiniteP1(F(7, 3))]
        if D.curve.field is not None:
            points.append(FiniteP1(SQRT2))
        point = D.curve.lift_point(draw(st.sampled_from(points)))
        assume(point not in D.fractional_support())
    return SectionRing(D).extend(d), _constructed(ND, d, s, point)


def member_read(model, cand) -> list:
    """The reference read: `Piece.member` of g as a primitive list, up to its
    last nonzero entry."""
    vec = model.piece(cand.degree).member(cand.g)
    return primitive_multiple([vec.get(j, 0) for j in range(max(vec) + 1)])


def fresh(cand, divisor) -> PrimeCandidate:
    """The candidate's function and degree with another divisor, unread."""
    return PrimeCandidate(cand.g, cand.degree, divisor)


class TestDivisorRoute:
    @given(constructed_candidates(), st.data())
    @settings(max_examples=250)
    def test_the_divisor_route_equals_the_member_read(self, case, data):
        """q = prod_x (w - x)^(A_x + floor(d*c_x)) is the primitive multiple
        of `Piece.member(g)`, and a tampered A is refused: an exponent made
        negative at a finite point, or exponents summing past the top
        column."""
        model, cand = case
        assert _candidate_coords(model, cand) == member_read(model, cand)
        piece = model.piece(cand.degree)
        A, curve = cand.divisor, model.divisor.curve
        finite = [pt for pt in {*A.points(), *model.divisor.points()} if pt != P1_INFINITY]
        if finite:
            x = data.draw(st.sampled_from(sorted(finite, key=repr)))
            e = A.coeff(x) + model.divisor.coeff(x) * cand.degree // 1 + 1
            negative = A + QDivisor._checked(curve, [(x, -e), (P1_INFINITY, e)])
            with pytest.raises(MembershipError):
                _candidate_coords(model, fresh(cand, negative))
        off = curve.lift_point(FiniteP1(F(11, 5)))
        top = QDivisor._checked(curve, [(off, F(piece.dim)), (P1_INFINITY, -F(piece.dim))])
        with pytest.raises(MembershipError):
            _candidate_coords(model, fresh(cand, A + top))

    def test_a_construction_is_not_read_by_coords(self, monkeypatch):
        """A construction's coordinates come from its divisor, so
        `Piece.coords` is not called; a candidate with no divisor is read."""
        D = QDivisor(P1, {FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
        model = SectionRing(D).extend(8)
        cand = construct_prime(D, 2, FiniteP1(2))
        plain = PrimeCandidate(cand.g, 2)
        calls = []
        coords = Piece.coords
        monkeypatch.setattr(Piece, "coords", lambda piece, f: calls.append(f) or coords(piece, f))
        assert primality_oracle(model, cand) == primality_oracle(model, plain)
        assert calls == [cand.g]


@st.composite
def member_candidates(draw):
    """(model, candidate): a divisor of `thin_divisors`, a degree d <= 4N
    with R_d != 0 (one of dimension two or more when there is one, in two
    draws of three), and g = f(q) for a coordinate polynomial q of degree at
    most dim R_d - 1: a basis element w^j, in some draws multiplied by
    w^2 - 2 or w^2 + 1, which have no rational zero, and in some by linear
    factors at support points and a small integer polynomial.

    The floors floor(d*c_x) at the finite points sum to at most 16 in
    absolute value: `divisor_of` tries every divisor of the constant terms
    of g up to their square root (ROADMAP item 6), and g = q over a product
    of (w - x)^floor(d*c_x) at points like 3/2 has constant terms past
    10^20 at d = 15."""
    D, N = draw(thin_divisors())
    model = SectionRing(D).extend(4 * N)
    finite = [c for pt, c in D.entries if pt != P1_INFINITY]
    degrees = [
        n for n in range(1, 4 * N + 1)
        if model.piece(n).dim and sum(abs(n * c // 1) for c in finite) <= 16
    ]
    assume(degrees)
    wide = [n for n in degrees if model.piece(n).dim > 1]
    degree = draw(st.sampled_from(wide if wide and draw(st.integers(0, 2)) else degrees))
    piece = model.piece(degree)
    room = piece.dim - 1
    q = Poly([1])
    if room >= 2 and draw(st.integers(0, 2)) == 0:
        q = Poly(draw(st.sampled_from([[-2, 0, 1], [1, 0, 1]])))
    q = q.shifted(draw(st.integers(0, room - q.degree)))
    if draw(st.booleans()):
        finite = [pt for pt in D.points() if pt != P1_INFINITY]
        roots = draw(st.lists(st.sampled_from(finite), max_size=room)) if finite else []
        for pt in roots[: room - q.degree]:
            q = q * Poly([-pt.coord, 1])
        extra = draw(st.lists(st.integers(-2, 2), max_size=room - q.degree + 1))
        if any(extra):
            q = q * Poly(extra)
    return model, PrimeCandidate(piece.function(q), degree)


class TestPointDivisor:
    @given(member_candidates())
    @settings(max_examples=250)
    def test_the_coordinate_route_equals_divisor_of(self, case):
        """div(g) read off q equals `divisor_of(g)`, and the point divisor of
        `necessary_check`, read after the oracle as `primes check` does, is
        s*div(g) + s*d*D; a factor with no rational zero raises
        IrrationalZerosError on both routes."""
        model, cand = case
        curve = model.divisor.curve
        try:
            expected = divisor_of(cand.g, curve)
        except IrrationalZerosError:
            with pytest.raises(IrrationalZerosError):
                _candidate_divisor(model, cand)
            return
        assert _candidate_divisor(model, cand) == expected
        primality_oracle(model, cand)
        try:
            rep = necessary_check(model, cand)
        except BoundTooSmallError:
            return
        D, s = model.divisor, rep.s
        assert rep.point_divisor == expected.scale(s) + D.scale(s * cand.degree)

    def test_an_irrational_support_point_is_divided_out(self):
        """Over Q(sqrt 2) with the support point sqrt 2, the constant 1 of
        degree 2 has q = w - sqrt 2, whose coefficients are irrational; the
        support point is divided out before the root search, so the divisor
        is 0, as `divisor_of(1)` says."""
        D = QDivisor(LINE_SQRT2, {FiniteP1(SQRT2): F(1, 2), P1_INFINITY: F(1, 2)})
        model = SectionRing(D).extend(4)
        one = RationalFunctionP1(Poly([Q_SQRT2.one()]))
        cand = PrimeCandidate(one, 2)
        assert _candidate_coords(model, cand) == member_read(model, cand)
        assert _candidate_divisor(model, cand) == divisor_of(one, LINE_SQRT2)
        assert divisor_of(one, LINE_SQRT2) == QDivisor(LINE_SQRT2, {})

    def test_integer_coordinates_are_read_as_fractions(self):
        """A rational q is a list of ints; its root 2/3 off the support is
        found (the root search reads Fraction entries)."""
        D = QDivisor(P1, {P1_INFINITY: F(1)})
        model = SectionRing(D).extend(3)
        cand = PrimeCandidate(model.piece(1).function(Poly([-2, 3])), 1)
        assert _candidate_coords(model, cand) == [-2, 3]
        assert _candidate_divisor(model, cand) == QDivisor(
            P1, {FiniteP1(F(2, 3)): 1, P1_INFINITY: -1}
        )


def test_an_irrational_factor_prints_the_primitive_residual_of_q(tmp_path, capsys):
    """g = 3 (w - 1)^2 (w^2 - 2) / w^2 in degree 4 of the half-integer ring has
    q = 3 (w^2 - 2); the check exits 1 with IrrationalZerosError, and the
    message prints the residual of the primitive q, w^2 - 2, where factoring
    g printed 3 w^2 - 6."""
    job = {
        "divisor": [
            {"point": "0", "coeff": "1/2"},
            {"point": "inf", "coeff": "1/2"},
            {"point": "1", "coeff": "-1/2"},
        ],
        "candidate": {
            "degree": 4,
            "function": {"numer": ["-6", "12", "-3", "-6", "3"], "denom": ["0", "0", "1"]},
        },
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    assert main(["primes", "check", "--input", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "IrrationalZerosError"
    assert err["error"]["message"] == (
        "a degree-2 factor has no rational zeros: Poly([-2, 0, 1])"
    )
