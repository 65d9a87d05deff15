"""Section-ring models: pieces, generators, relations, Hilbert data.

The frozen expectations here were derived by hand from the divisor degree
formula dim R_n = deg floor(nD) + 1 and direct expansion of the candidate
relations; the model code must reproduce them exactly.
"""

import collections
import fractions
import itertools
import math
import sys
import warnings
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_span
from cold_build import cold_build
from dense_span import dense
from field_kernel import kernel_basis
from long_division import reference_divrem
from qsection import section_ring
from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.errors import (
    FitFailedError,
    MembershipError,
    NotAmpleError,
    PoleOrderMismatchError,
)
from qsection.exact_arith import NumberField, NumberFieldElem, Poly, primitive_multiple, pseudo_divrem
from qsection.linalg import SpanBuilder
from qsection.p1 import RationalFunctionP1, rr_basis
from qsection.section_ring import (
    Generator,
    HilbertSeries,
    Piece,
    Relation,
    SectionRing,
    a_invariant,
    build_section_ring,
    default_bound,
    exponent_vectors,
    find_relations,
    graded_dimension,
    hilbert_series,
    tomari_limit,
)

P1 = ProjectiveLine()


def d(entries):
    return QDivisor(P1, entries)


def rf(numer, denom=(1,)):
    return RationalFunctionP1(Poly([F(c) for c in numer]), Poly([F(c) for c in denom]))


D_HALF = d({FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
D_SCROLL = d({FiniteP1(0): F(5, 7), P1_INFINITY: F(-4, 7)})
D_POLY = d({FiniteP1(0): 1})
D_42 = d({P1_INFINITY: F(1, 2), FiniteP1(0): F(-1, 3), FiniteP1(1): F(-1, 7)})


class TestGradedDimension:
    def test_half_integer_series(self):
        assert [graded_dimension(D_HALF, n) for n in range(7)] == [1, 0, 2, 1, 3, 2, 4]

    def test_scroll_series(self):
        assert [graded_dimension(D_SCROLL, n) for n in range(11)] == [
            1, 0, 0, 1, 0, 1, 1, 2, 1, 1, 2,
        ]

    def test_polynomial_ring(self):
        assert [graded_dimension(D_POLY, n) for n in range(4)] == [1, 2, 3, 4]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            graded_dimension(D_HALF, -1)

    @given(
        st.dictionaries(
            st.integers(-6, 6),
            st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
            max_size=4,
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.integers(0, 40),
    )
    @settings(max_examples=200)
    def test_matches_floor_divisor_degree(self, finite, at_inf, n):
        D = d({**{FiniteP1(x): c for x, c in finite.items()}, P1_INFINITY: at_inf})
        floor = D.scale(n).floor()
        expected = max(floor.degree() + 1, 0)
        assert graded_dimension(D, n) == expected
        piece = Piece(D, n)
        assert piece.dim == expected


class TestPiece:
    def test_basis_and_membership(self):
        piece = Piece(D_HALF, 2)
        assert piece.dim == 2
        member = rf((2, -3, 1), (0, 1))     # (w-1)(w-2)/w
        vec = piece.member(member)
        assert len(vec) == 2

    def test_non_member(self):
        piece = Piece(D_HALF, 2)
        with pytest.raises(MembershipError):
            piece.member(rf((0, 1)))        # w has a pole at infinity too deep

    def test_zero_is_member(self):
        piece = Piece(D_HALF, 2)
        assert piece.coords(rf((0,))) == {}


class TestExponentVectors:
    def test_exact_weighted_sums(self):
        vecs = exponent_vectors([2, 2, 3], 6)
        assert set(vecs) == {(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 0, 2)}
        # deterministic: first exponent descends
        assert vecs[0] == (3, 0, 0)

    def test_total_zero(self):
        assert exponent_vectors([2, 3], 0) == [(0, 0)]
        assert exponent_vectors([], 0) == [()]

    def test_unreachable_total(self):
        assert exponent_vectors([2], 3) == []

    @given(st.lists(st.integers(1, 6), max_size=4), st.integers(0, 20))
    @settings(max_examples=200)
    def test_order_matches_brute_force(self, degrees, total):
        # every exponent descending, the first slowest: the order that fixes
        # the term order of relations
        ranges = [range(total // deg, -1, -1) for deg in degrees]
        expected = [
            e
            for e in itertools.product(*ranges)
            if sum(a * b for a, b in zip(e, degrees)) == total
        ]
        assert exponent_vectors(degrees, total) == expected


class TestModelHalfInteger:
    def test_generator_degrees_and_functions(self):
        model = build_section_ring(D_HALF)
        assert [g.degree for g in model.generators] == [2, 2, 3]
        funcs = [g.func for g in model.generators]
        assert funcs[0] == rf((-1, 1), (0, 1))      # (w-1)/w
        assert funcs[1] == rf((-1, 1))              # w-1
        assert funcs[2] == rf((1, -2, 1), (0, 1))   # (w-1)^2/w

    def test_single_relation_in_degree_six(self):
        model = build_section_ring(D_HALF)
        rels = find_relations(model)
        assert len(rels) == 1
        assert rels[0].degree == 6
        assert rels[0].terms == (
            ((2, 1, 0), F(1)),
            ((1, 2, 0), F(-1)),
            ((0, 0, 2), F(1)),
        )

    def test_hilbert_series(self):
        hs = hilbert_series(build_section_ring(D_HALF))
        assert hs.numerator == (1, 0, 0, 0, 0, 0, -1)
        assert hs.denominator_exponents == (2, 2, 3)

    def test_tomari_equals_degree(self):
        hs = hilbert_series(build_section_ring(D_HALF))
        assert tomari_limit(hs, 2) == F(1, 2) == D_HALF.degree()

    def test_irredundant(self):
        assert build_section_ring(D_HALF).irredundant is True


class TestModelScroll:
    def test_generators(self):
        model = build_section_ring(D_SCROLL)
        assert [g.degree for g in model.generators] == [3, 5, 7, 7]
        funcs = [g.func for g in model.generators]
        assert funcs[0] == rf((1,), (0, 0, 1))          # 1/w^2
        assert funcs[1] == rf((1,), (0, 0, 0, 1))       # 1/w^3
        assert funcs[2] == rf((1,), (0, 0, 0, 0, 0, 1))  # 1/w^5
        assert funcs[3] == rf((1,), (0, 0, 0, 0, 1))    # 1/w^4

    def test_relation_degrees(self):
        rels = find_relations(build_section_ring(D_SCROLL))
        assert [r.degree for r in rels] == [10, 12, 14]

    def test_hilbert_numerator_has_syzygy_terms(self):
        hs = hilbert_series(build_section_ring(D_SCROLL))
        expected = [0] * 20
        expected[0] = 1
        expected[10] = expected[12] = expected[14] = -1
        expected[17] = expected[19] = 1
        assert hs.numerator == tuple(expected)
        assert hs.denominator_exponents == (3, 5, 7, 7)

    def test_a_invariant(self):
        assert a_invariant(hilbert_series(build_section_ring(D_SCROLL))) == -3

    def test_tomari(self):
        assert tomari_limit(hilbert_series(build_section_ring(D_SCROLL)), 2) == F(1, 7)


class TestModelPolynomialRing:
    def test_two_degree_one_generators_no_relations(self):
        model = build_section_ring(D_POLY)
        assert [g.degree for g in model.generators] == [1, 1]
        assert find_relations(model) == []
        hs = hilbert_series(model)
        assert hs.numerator == (1,)
        assert hs.denominator_exponents == (1, 1)
        assert a_invariant(hs) == -2


class TestModelGuards:
    def test_not_ample(self):
        with pytest.raises(NotAmpleError):
            build_section_ring(d({}))
        with pytest.raises(NotAmpleError):
            build_section_ring(d({FiniteP1(0): -1}))
        # the model itself refuses, before any bound is asked for
        with pytest.raises(NotAmpleError):
            SectionRing(d({}))

    def test_default_bound_three_periods(self):
        assert default_bound(D_HALF) == 6
        assert default_bound(D_SCROLL) == 21
        assert SectionRing(D_HALF).extend().bound == 6

    def test_generator_at_the_proven_bound_does_not_warn(self):
        """B* = 3 holds the third generator, so bound 2 becomes 3, with no
        warning; a bound at or below the current one leaves the model as it
        is."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = build_section_ring(D_HALF, 2)
        assert not caught
        assert model.bound == model.generator_bound == 3
        assert model.generator_degrees == [2, 2, 3]
        assert model.extend(1).bound == 3
        model.extend(6)
        dims, generators = model.dims, list(model.generators)
        assert model.extend(4) is model
        assert (model.bound, model.dims, model.generators) == (6, dims, generators)

    def test_piece_outside_bound(self):
        model = build_section_ring(D_HALF)
        with pytest.raises(IndexError):
            model.piece(model.bound + 1)

    def test_monomial_memoization_consistency(self):
        model = build_section_ring(D_HALF)
        m1 = model.monomial((1, 1, 0))
        m2 = model.monomial((1, 1, 0))
        assert m1 == m2 == model.generators[0].func * model.generators[1].func


class TestModelExtension:
    # both bounds at or above B* (3 and 85), so neither is raised
    @pytest.mark.parametrize("D, start, target", [(D_HALF, 6, 8), (D_42, 85, 126)])
    def test_extended_model_equals_fresh_build(self, D, start, target):
        extended = build_section_ring(D, start)
        # relations and series of the smaller model, read before extending
        find_relations(extended)
        hilbert_series(extended)
        extended.extend(target)
        fresh = cold_build(D, target)
        assert extended.bound == fresh.bound == target
        assert extended.dims == fresh.dims
        assert extended.generators == fresh.generators
        assert find_relations(extended) == find_relations(fresh)
        assert hilbert_series(extended) == hilbert_series(fresh)
        assert extended.irredundant == fresh.irredundant


def carry_poly(D, a, b):
    """Reference carry: prod (w - x) over the finite points x of D with
    floor((a+b)*c_x) - floor(a*c_x) - floor(b*c_x) = 1, as a Poly product."""
    out = Poly.one()
    for pt, c in D.entries:
        if pt == P1_INFINITY:
            continue
        if math.floor((a + b) * c) - math.floor(a * c) - math.floor(b * c):
            out = out * Poly([-pt.coord, F(1)])
    return out


Q_SQRT2 = NumberField((-2, 0, 1))
SQRT2 = Q_SQRT2.gen()
POINT_COORDS = sorted({F(c, b) for c in range(-3, 4) for b in (1, 2)})


@st.composite
def carry_cases(draw):
    """A 2-4 point divisor, degrees a and b, and a section of each degree.

    One draw in four puts the divisor on the line over Q(sqrt 2) with a
    point at sqrt(2) + k and number-field coordinates in the sections.
    """
    over_nf = draw(st.integers(0, 3)) == 0
    npts = draw(st.integers(2, 4))
    coords = draw(st.lists(st.integers(-3, 3), min_size=npts, max_size=npts, unique=True))
    points = [FiniteP1(F(c)) for c in coords]
    if draw(st.booleans()):
        points[-1] = P1_INFINITY
    if over_nf:
        points[0] = FiniteP1(SQRT2 + coords[0])
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7]))
    entries = [(pt, F(draw(st.integers(-q, q)), q)) for pt in points]
    D = QDivisor(ProjectiveLine(Q_SQRT2) if over_nf else P1, entries)
    top = 4 if over_nf else 7
    a = draw(st.integers(0, top))
    b = draw(st.integers(0, top))
    assume(Piece(D, a).dim and Piece(D, b).dim)

    def section(n):
        out = [draw(st.integers(-3, 3)) for _ in range(Piece(D, n).dim)]
        if over_nf:
            out = [c + draw(st.integers(-2, 2)) * SQRT2 for c in out]
        return Poly(out)

    return D, a, b, section(a), section(b)


class TestCarryProduct:
    """The carry product against the gcd-normalizing function product."""

    @given(carry_cases())
    @settings(max_examples=200)
    def test_carry_product_matches_function_product(self, case):
        D, a, b, qa, qb = case
        pa, pb, pab = Piece(D, a), Piece(D, b), Piece(D, a + b)
        fa, fb = pa.function(qa), pb.function(qb)
        assert pa.coords(fa) == pa.vector(qa.coeffs)
        assert pb.coords(fb) == pb.vector(qb.coeffs)
        assert pab.vector((qa * qb * carry_poly(D, a, b)).coeffs) == pab.coords(fa * fb)


class TestIntegerCarries:
    @pytest.mark.parametrize(
        "D",
        [
            D_HALF,
            D_42,
            d({FiniteP1(F(-3, 2)): F(1, 3), FiniteP1(F(2, 5)): F(-2, 5),
               FiniteP1(7): F(3, 4), P1_INFINITY: F(1, 6)}),
            QDivisor(ProjectiveLine(Q_SQRT2), {FiniteP1(SQRT2): F(1, 2),
                                                FiniteP1(F(1, 3)): F(-1, 3)}),
        ],
    )
    def test_one_carry_per_point_subset(self, D):
        model = SectionRing(D)
        finite = [c for pt, c in D.entries if pt != P1_INFINITY]
        by_subset = {}  # points with exponent 1 -> the carry returned
        for a in range(25):
            for b in range(25):
                out = model.carry(a, b)
                coeffs, B = out
                assert Poly(coeffs).scale(F(1, B)) == carry_poly(D, a, b)
                subset = tuple(
                    i for i, c in enumerate(finite)
                    if math.floor((a + b) * c) - math.floor(a * c) - math.floor(b * c)
                )
                # the same memoized object for every pair with this subset
                assert by_subset.setdefault(subset, out) is out
        assert len(by_subset) <= 2 ** len(finite)


@st.composite
def small_pieces(draw):
    """A piece of dimension at most 8 of a 1-3 point divisor, over Q or,
    one draw in four, over Q(sqrt 2) with a point at sqrt(2)."""
    over_nf = draw(st.integers(0, 3)) == 0
    coords = draw(st.lists(st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
                           min_size=1, max_size=3, unique=True))
    points = [FiniteP1(c) for c in coords]
    if over_nf:
        points[0] = FiniteP1(SQRT2)
    if draw(st.booleans()):
        points.append(P1_INFINITY)
    entries = [(pt, draw(st.builds(F, st.integers(-6, 6), st.integers(1, 4)))) for pt in points]
    D = QDivisor(ProjectiveLine(Q_SQRT2) if over_nf else P1, entries)
    piece = Piece(D, draw(st.integers(0, 6)))
    assume(piece.dim <= 8)
    return piece


class TestBasisFunctions:
    @given(small_pieces())
    @settings(max_examples=200)
    def test_reduced_basis_matches_normalising_constructor(self, piece):
        # rr_basis builds each element with the gcd-normalising constructor
        floor = piece.divisor.scale(piece.degree_t).floor()
        assert piece.basis == tuple(rr_basis(floor))
        for f in piece.basis:
            assert RationalFunctionP1(f.numer, f.denom) == f


def reference_coords(piece, f):
    """Coordinates of f by the two-step cofactor route: den / f.denom must
    be exact, and then f.numer * cofactor / mand."""
    if f.is_zero:
        return {}
    if piece.dim == 0:
        return None
    den, mand = piece._rr()
    cofactor, rem = reference_divrem(den, f.denom)
    if not rem.is_zero:
        return None
    p, rem = reference_divrem(f.numer * cofactor, mand)
    if not rem.is_zero or p.degree > piece._cap:
        return None
    return piece.vector(p.coeffs)


small_ints = st.lists(st.integers(-4, 4), max_size=8)
fraction_lists = st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 9)), max_size=10)


@st.composite
def tall_pieces(draw):
    """A piece of dimension 1 to 10 of a divisor on 1-3 points a/b with
    |a|, b <= 300, over Q or, one draw in three, on the line over Q(sqrt 2),
    where one draw in two moves the first point to x + sqrt(2).  den and
    mand have degree at most 24 together, which keeps the reference's
    Fraction gcds short."""
    over_nf = draw(st.integers(0, 2)) == 0
    coords = draw(st.lists(st.builds(F, st.integers(-300, 300), st.integers(1, 300)),
                           min_size=1, max_size=3, unique=True))
    points = [FiniteP1(c) for c in coords]
    if over_nf and draw(st.booleans()):
        points[0] = FiniteP1(coords[0] + SQRT2)
    if draw(st.booleans()):
        points.append(P1_INFINITY)
    entries = [(pt, draw(st.builds(F, st.integers(-9, 9), st.integers(1, 7)))) for pt in points]
    D = QDivisor(ProjectiveLine(Q_SQRT2) if over_nf else P1, entries)
    n = draw(st.integers(0, 9))
    assume(sum(abs(n * c.numerator // c.denominator) for pt, c in entries if pt != P1_INFINITY) <= 24)
    piece = Piece(D, n)
    assume(0 < piece.dim <= 10)
    return piece


class TestCoordsAgainstCofactorRoute:
    """`Piece.coords` decides membership by one fraction-free division over
    coefficient lists; the two-step cofactor route over Fraction polynomials
    is the reference, compared value for value."""

    @given(small_pieces(), st.integers(0, 6), small_ints, small_ints)
    @settings(max_examples=200)
    def test_products_of_sections_are_members(self, piece, a, qa, qb):
        D, n = piece.divisor, piece.degree_t
        a = min(a, n)
        fa = Piece(D, a).function(Poly(qa[: Piece(D, a).dim]))
        fb = Piece(D, n - a).function(Poly(qb[: Piece(D, n - a).dim]))
        f = fa * fb
        assert piece.coords(f) == reference_coords(piece, f)
        if not f.is_zero:
            assert piece.coords(f) is not None

    @given(small_pieces(), small_ints)
    @settings(max_examples=200)
    def test_non_members_and_zero(self, piece, q):
        assume(piece.dim > 0)
        f = piece.function(Poly(q[: piece.dim - 1] + [1]))           # a nonzero member
        pole = RationalFunctionP1(Poly.one(), Poly([F(-7), F(1)]))   # 1/(w - 7)
        past_cap = piece.function(Poly.variable() ** (piece.dim))    # degree cap + 1
        for g in (f * pole, past_cap, rf((0,))):
            assert piece.coords(g) == reference_coords(piece, g)
        assert piece.coords(f * pole) is None
        assert piece.coords(past_cap) is None
        assert piece.coords(rf((0,))) == {}

    @pytest.mark.parametrize("curve", [P1, ProjectiveLine(Q_SQRT2)], ids=["Q", "Q(sqrt 2)"])
    @pytest.mark.parametrize("D", [D_HALF, D_SCROLL, D_42], ids=["half", "scroll", "42"])
    def test_fixture_bases_and_their_neighbours(self, curve, D):
        D = QDivisor(curve, D.entries)
        pole = rf((1,), (-3, 1))                                      # 1/(w - 3)
        for n in range(8):
            piece = Piece(D, n)
            for g in (*piece.basis, piece.function(Poly.variable() ** piece.dim)):
                for h in (g, g * pole):
                    assert piece.coords(h) == reference_coords(piece, h)

    @pytest.mark.parametrize("curve", [P1, ProjectiveLine(Q_SQRT2)], ids=["Q", "Q(sqrt 2)"])
    def test_degree_42_pieces(self, curve):
        # 1/2[inf] - 1/3[0] - 1/7[1] has degree 1/42: its pieces of degree 42
        # and 84 hold the primes-mix candidates, and degree 21 has dimension 1
        D = QDivisor(curve, D_42.entries)
        pole = rf((1,), (-3, 1))
        half = Piece(D, 21).basis[0]
        for n in (42, 84, 85):
            piece = Piece(D, n)
            q = [F(-5, 3), F(7, 2), F(1, 6)][: piece.dim]
            f = piece.function(Poly(q))
            assert piece.coords(f) == {i: c for i, c in enumerate(q) if c}
            past_cap = piece.function(Poly([F(2, 3)]).shifted(piece.dim))
            for g in (*piece.basis, f, half * half, past_cap, f * pole):
                assert piece.coords(g) == reference_coords(piece, g)
            assert piece.coords(past_cap) is None
            assert piece.coords(f * pole) is None

    @given(tall_pieces(), st.integers(0, 9), fraction_lists, fraction_lists)
    @settings(max_examples=150)
    def test_tall_points_and_fraction_coordinates(self, piece, a, qa, qb):
        D, n = piece.divisor, piece.degree_t
        a = min(a, n)
        A, B = Piece(D, a), Piece(D, n - a)
        product = A.function(Poly(qa[: A.dim])) * B.function(Poly(qb[: B.dim]))
        q = qa[: piece.dim - 1] + [F(-1, 3)]
        f = piece.function(Poly(q))
        assert piece.coords(f) == {i: c for i, c in enumerate(q) if c}
        foreign = [F(301, 2)] + ([3 * SQRT2] if piece.divisor.curve.field else [])
        poles = [RationalFunctionP1(Poly.one(), Poly([-x, F(1)])) for x in foreign]
        past_cap = piece.function(Poly([F(5, 7)]).shifted(piece.dim))
        for g in (product, f, past_cap, *(f * pole for pole in poles)):
            assert piece.coords(g) == reference_coords(piece, g)
        assert piece.coords(past_cap) is None
        assert all(piece.coords(f * pole) is None for pole in poles)

    def test_fraction_coordinates_and_the_scaled_division(self):
        # in degree 4, denom * mand is (3w - 11)^3 * (5w + 7)^3, primitive with
        # lead 3^3 * 5^3.  The member with coordinates [1/3, -2/7, 5/4] divides
        # with no scaling (Gauss's lemma: its integer quotient is exact), and
        # its coordinates come from the scale alone; a pole at 301/2 or 2/3
        # makes the division scale on its way to a nonzero remainder
        D = d({FiniteP1(F(-7, 5)): F(-2, 3), FiniteP1(F(11, 3)): F(3, 4), P1_INFINITY: F(1, 2)})
        piece = Piece(D, 4)
        q = [F(1, 3), F(-2, 7), F(5, 4)]
        f = piece.function(Poly(q))
        scales = []

        def spy(a, b):
            out = pseudo_divrem(a, b)
            scales.append(out[2])
            return out

        with mock.patch("qsection.section_ring.pseudo_divrem", spy):
            assert piece.coords(f) == reference_coords(piece, f) == dict(enumerate(q))
            assert scales == [1]
            for pole in (rf((1,), (-301, 2)), rf((1,), (-2, 3))):
                assert piece.coords(f * pole) is reference_coords(piece, f * pole) is None
        assert scales[1:] == [4, 3]

    def test_rational_read_makes_no_fraction_arithmetic(self):
        # Fraction arithmetic runs through fractions._add, _sub, _mul and
        # _div; a rational read builds Fractions only for its coordinates
        piece = Piece(D_42, 84)
        f = piece.function(Poly([F(-5, 3), F(7, 2), F(1, 6)]))
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls[frame.f_code.co_name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            got = piece.coords(f)
        finally:
            sys.setprofile(previous)
        assert got == {0: F(-5, 3), 1: F(7, 2), 2: F(1, 6)}
        assert calls["__new__"] >= 3                      # the hook sees fractions.py
        assert sum(calls[name] for name in ("_add", "_sub", "_mul", "_div")) == 0


small_coefficients = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def rational_divisors(draw):
    """A rational divisor on 1-2 finite points and infinity, of degree 1/3,
    1/2, 2/3, 1 or 3/2, with finite coefficient denominators <= 3.

    The degree cap keeps the pieces small: number-field arithmetic still
    builds a polynomial product and a remainder for every multiplication.
    """
    coords = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2, unique=True))
    entries = {
        FiniteP1(F(c, draw(st.integers(1, 2)))): draw(small_coefficients) for c in coords
    }
    degree = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)]))
    entries[P1_INFINITY] = degree - sum(entries.values())
    return d(entries)


def rf_sum(terms):
    """sum c * f over (c, f) terms, as numerator and denominator polynomials."""
    numer, denom = Poly.zero(), Poly.one()
    for c, f in terms:
        numer = numer * f.denom + f.numer.scale(c) * denom
        denom = denom * f.denom
    return numer


class TestNumberFieldCrossCheck:
    """The integer path against the number-field scalars of the same divisor."""

    @given(rational_divisors())
    @settings(max_examples=200)
    def test_same_model_over_q_and_q_sqrt2(self, D):
        D_nf = QDivisor(ProjectiveLine(Q_SQRT2), D.entries)
        model = build_section_ring(D, 12)
        model_nf = build_section_ring(D_nf, 12)
        assert model.dims == model_nf.dims
        assert [(g.degree, g.column) for g in model.generators] == [
            (g.degree, g.column) for g in model_nf.generators
        ]
        assert all(model_nf.carry(a, b)[1] == 1 for a in range(13) for b in range(13))
        relations = find_relations(model)
        assert relations == find_relations(model_nf)
        for rel in relations:
            assert rf_sum((c, model.monomial(e)) for e, c in rel.terms).is_zero


def reference_extend(D, bound):
    """Generator discovery by full monomial enumeration, the reference for
    multiplication maps: in every degree up to the bound, every monomial in
    the generators found so far is added to the span of products."""
    model = SectionRing(D)
    for n in range(1, bound + 1):
        piece = Piece(D, n)
        model.pieces.append(piece)
        if piece.dim == 0:
            continue
        span = SpanBuilder(piece.dim)
        for expo in exponent_vectors(model.generator_degrees, n):
            shift, coeffs, _ = model.monomial_coords(expo)
            span.add(piece.vector(coeffs, shift))
        for j in range(piece.dim):
            if j not in span.pivots:
                model.generators.append(Generator(n, j, piece))
    model.bound = bound
    return model


@st.composite
def ring_cases(draw, over_nf=None):
    """A divisor on 2-4 points of degree at most one, and a bound.

    The coefficients are k/q with q <= 6 and k != 0 of either sign; the
    last one fixes the degree.  Over Q the bound is B* + 2N.  One draw in
    four, or every draw when over_nf is set, puts the divisor on the line
    over Q(sqrt 2), with a point at sqrt(2) + c, q <= 3 and a bound <= 8.
    """
    if over_nf is None:
        over_nf = draw(st.integers(0, 3)) == 0
    npts = draw(st.integers(2, 4))
    coords = draw(st.permutations(POINT_COORDS))[:npts]
    points = [FiniteP1(c) for c in coords]
    if draw(st.booleans()):
        points[-1] = P1_INFINITY
    if over_nf:
        points[0] = FiniteP1(SQRT2 + coords[0])
    q = draw(st.integers(1, 3 if over_nf else 6))
    ks = [draw(st.sampled_from([k for k in range(-q, q + 1) if k])) for _ in points[1:]]
    ks.append(draw(st.integers(1, q)) - sum(ks))
    assume(ks[-1])
    entries = [(pt, F(k, q)) for pt, k in zip(points, ks)]
    if over_nf:
        return QDivisor(ProjectiveLine(Q_SQRT2), entries), draw(st.integers(1, 8))
    D = d(entries)
    return D, SectionRing(D).generator_bound + 2 * D.common_denominator()


class TestProductFormula:
    """The closed form of `monomial_coords` against products of functions."""

    @given(ring_cases(), st.data())
    @settings(max_examples=150)
    def test_monomial_coords_match_function_products(self, case, data):
        """Piece.coords of prod_g g.func^e_g is w^s * c / B for small
        monomials; rational-function products are slow, so the degrees stop
        at 8 and each case checks at most three products of two or more
        factors."""
        D, bound = case
        top = min(bound, 8)
        model = build_section_ring(D, top)
        monos = [
            e
            for n in range(2, top + 1)
            for e in exponent_vectors(model.generator_degrees, n)
            if sum(e) >= 2
        ]
        assume(monos)
        for e in data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)):
            f = None
            for g, a in zip(model.generators, e):
                for _ in range(a):
                    f = g.func if f is None else f * g.func
            shift, coeffs, B = model.monomial_coords(e)
            piece = model.piece(sum(a * g.degree for g, a in zip(model.generators, e)))
            assert piece.coords(f) == piece.vector(Poly(coeffs).scale(F(1, B)).coeffs, shift)


class TestReferenceCrossChecks:
    """Multiplication maps, the proven bound B* and the counted kernel
    dimension against full enumeration."""

    def test_proven_bounds_of_the_worked_examples(self):
        assert [SectionRing(D).generator_bound for D in (D_HALF, D_42, D_SCROLL, D_POLY)] == [
            3, 85, 11, 1,
        ]

    @given(ring_cases())
    @settings(max_examples=200)
    def test_multiplication_maps_match_full_enumeration(self, case):
        D, bound = case
        model = build_section_ring(D, bound)
        bound = model.bound  # raised to B* over Q(sqrt 2)
        ref = reference_extend(D, bound)
        assert [(g.degree, g.column) for g in model.generators] == [
            (g.degree, g.column) for g in ref.generators
        ]
        assert model.dims == ref.dims
        assert max(ref.generator_degrees) <= model.generator_bound
        # the kernel dimension that find_relations counts on, in every degree
        for n in range(1, bound + 1):
            monos = exponent_vectors(ref.generator_degrees, n)
            piece = ref.piece(n)
            columns = []
            for e in monos:
                shift, coeffs, _ = ref.monomial_coords(e)
                columns.append(dense(piece.vector(coeffs, shift), piece.dim))
            assert len(kernel_basis(columns, piece.dim)) == len(monos) - piece.dim

    @given(ring_cases(), st.data())
    @settings(max_examples=100)
    def test_every_bound_is_raised_to_the_generator_bound(self, case, data):
        """extend(b) has bound max(b, B*), and max(3N, B*) with no bound,
        and equals full enumeration at that bound."""
        D, _ = case
        top = SectionRing(D).generator_bound
        bound = data.draw(st.none() | st.integers(1, top + 1), label="bound")
        model = SectionRing(D).extend(bound)
        assert model.bound == max(default_bound(D) if bound is None else bound, top)
        ref = reference_extend(D, model.bound)
        assert [(g.degree, g.column) for g in model.generators] == [
            (g.degree, g.column) for g in ref.generators
        ]
        assert model.dims == ref.dims

    @given(ring_cases(), st.data())
    @settings(max_examples=200)
    def test_an_extended_model_is_irredundant(self, case, data):
        """The flag that `extend` sets is gcd(support of the dims) == 1, from
        any bound (proof in `SectionRing.extend`)."""
        D, _ = case
        bound = data.draw(st.none() | st.integers(1, SectionRing(D).generator_bound + 1))
        model = SectionRing(D).extend(bound)
        support = [n for n, dim in enumerate(model.dims) if n and dim]
        assert model.irredundant == (math.gcd(*support) == 1)


def reference_find_relations(model):
    """Relations without the leading-term count or the one span, the
    reference for both: every degree up to the bound spans the consequences
    of earlier relations, and where they fall short of the counted kernel
    dimension the canonical kernel basis (plain field Gauss-Jordan) is
    reduced against them, in the dense reference builder."""
    degrees = [g.degree for g in model.generators]
    relations = []
    scaled_terms = []
    for n in range(1, model.bound + 1):
        monos = exponent_vectors(degrees, n)
        piece = model.piece(n)
        full = len(monos) - piece.dim
        if full <= 0:
            continue
        index = {e: i for i, e in enumerate(monos)}
        consequences = dense_span.SpanBuilder(len(monos))
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
        coords = [model.monomial_coords(e) for e in monos]
        L = math.lcm(*(B for _, _, B in coords))
        columns = [
            dense(
                piece.vector([c * (L // B) for c in coeffs] if B != L else coeffs, shift),
                piece.dim,
            )
            for shift, coeffs, B in coords
        ]
        for v in kernel_basis(columns, piece.dim):
            if consequences.rank == full:
                break
            res = consequences.reduce(v)
            lead = next((i for i, c in enumerate(res) if c), None)
            if lead is None:
                continue
            inv = F(1) / res[lead]
            res = [c * inv for c in res]
            terms = tuple((monos[i], c) for i, c in enumerate(res) if c)
            relations.append(Relation(n, terms))
            coeffs = primitive_multiple([c for _, c in terms])
            scaled_terms.append((n, [(e, c) for (e, _), c in zip(terms, coeffs)]))
            consequences.add(res)
    return relations


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def kernel_leading_monomials(model, n):
    """in(K)_n by brute force: the pivots of an echelon basis of the whole
    kernel of the degree-n evaluation map, monomials in `exponent_vectors`
    order (the first one largest).  Column scales do not move them."""
    monos = exponent_vectors(model.generator_degrees, n)
    piece = model.piece(n)
    columns = []
    for e in monos:
        shift, coeffs, _ = model.monomial_coords(e)
        columns.append(dense(piece.vector(coeffs, shift), piece.dim))
    span = dense_span.SpanBuilder(len(monos))
    for v in kernel_basis(columns, piece.dim):
        span.add(v)
    return [monos[p] for p in span.pivots]


class TestLeadingTermCount:
    """The relation search that skips degrees by the leading-term count,
    against the search that forms every degree."""

    @given(ring_cases())
    @settings(max_examples=200)
    # c*[inf]: c + 1 generators in degree 1, so degree 2 is formed and the
    # count of each higher degree runs over many generators
    @example((d({P1_INFINITY: F(12)}), 3))
    @example((d({P1_INFINITY: F(2)}), 6))
    def test_relations_match_the_reference(self, case):
        D, bound = case
        model = build_section_ring(D, bound)
        bound = model.bound  # raised to B* over Q(sqrt 2)
        totals = []

        def recording(degrees, total):
            totals.append(total)
            return exponent_vectors(degrees, total)

        with mock.patch("qsection.section_ring.exponent_vectors", recording):
            relations = find_relations(model)
        assert relations == reference_find_relations(model)
        # each degree is enumerated at most once per call, and a degree the
        # search forms is enumerated before any higher one: multipliers of
        # degree n - deg r are always below the degree n being formed
        assert len(totals) == len(set(totals))
        formed = {t for i, t in enumerate(totals) if all(t > s for s in totals[:i])}
        # the count of standard monomials of the leading monomials of the
        # kernel below degree n, computed by brute force: a degree is skipped
        # exactly when it equals dim R_n
        learned = []  # minimal generators
        for n in range(1, bound + 1):
            count = sum(
                1
                for e in exponent_vectors(model.generator_degrees, n)
                if not any(divides(g, e) for g in learned)
            )
            assert count >= model.dims[n]
            assert (n in formed) == (count > model.dims[n]), n
            learned += [
                m
                for m in kernel_leading_monomials(model, n)
                if not any(divides(g, m) for g in learned)
            ]


    def test_standard_monomials_wait_for_the_first_relation(self):
        """[inf] at bound 60 (two generators in degree 1) has no relation,
        so every count is that of all monomials and no S_n is built.  The
        half-integer model first forms degree 6; only then are S_1 .. S_5
        built, and S_n for each later degree."""
        built = []
        standard_sets = section_ring._standard

        def recording(standard, *args):
            built.append(len(standard))
            return standard_sets(standard, *args)

        with mock.patch.object(section_ring, "_standard", recording):
            assert find_relations(build_section_ring(d({P1_INFINITY: 1}), 60)) == []
            assert built == []
            relations = find_relations(build_section_ring(D_HALF, 12))
        assert [r.degree for r in relations] == [6]
        assert built == [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12]

    @given(ring_cases(over_nf=True))
    @settings(max_examples=100, deadline=None)
    def test_relation_coefficients_stay_exact(self, case):
        """Every coefficient of a relation over Q(sqrt 2) is an int, a
        Fraction or a number-field element, never a float."""
        D, bound = case
        model = build_section_ring(D, bound)
        for rel in find_relations(model):
            assert all(type(c) in (int, F, NumberFieldElem) for _, c in rel.terms), rel

    def test_span_switching_to_pivot_one_rows_midway(self):
        """1/2[0] + 1/2[1] - 1/2[inf] over Q(sqrt 2) at bound 12 forms only
        degree 6.  Its span holds int rows for the first four vectors and
        pivot-one rows from the fifth on, when a monomial residual brings a
        number-field entry; the relation is still the reference's."""
        D = QDivisor(
            ProjectiveLine(Q_SQRT2),
            {FiniteP1(0): F(1, 2), FiniteP1(1): F(1, 2), P1_INFINITY: F(-1, 2)},
        )
        model = build_section_ring(D, 12)
        assert model.generator_degrees == [2, 2, 3]
        seen = []  # (rank, every row entry an int) after each add
        add = SpanBuilder.add

        def recording(span, vec):
            grew = add(span, vec)
            seen.append((span.rank, all(type(x) is int for row in span.rows for x in row.values())))
            return grew

        with mock.patch.object(SpanBuilder, "add", recording):
            relations = find_relations(model)
        assert seen == [(1, True), (2, True), (3, True), (4, True), (5, False)]
        assert relations == reference_find_relations(model)
        assert relations == [Relation(6, (((2, 1, 0), 1), ((1, 2, 0), -1), ((0, 0, 2), 1)))]


D_FOUR = d({FiniteP1(0): F(1, 2), FiniteP1(1): F(1, 3), P1_INFINITY: F(-5, 7)})
D_EIGHT = d({FiniteP1(0): F(3, 4), FiniteP1(1): F(2, 3), P1_INFINITY: F(-7, 12)})

ORACLE_ROWS = [(D_HALF, 24, 1), (D_FOUR, 60, 3), (D_EIGHT, 16, 21)]


class TestRelationOracles:
    """Independent checks of the relations of the Baseline rows."""

    @pytest.mark.parametrize("D, bound, _", ORACLE_ROWS)
    def test_groebner_standard_monomials_count_the_dimensions(self, D, bound, _):
        sympy = pytest.importorskip("sympy")
        model = build_section_ring(D, bound)
        xs = sympy.symbols(f"x0:{len(model.generators)}")
        polys = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([x**a for x, a in zip(xs, e)])
                for e, c in rel.terms
            )
            for rel in find_relations(model)
        ]
        # the count of standard monomials in each degree does not depend on
        # the monomial order
        basis = sympy.groebner(polys, *xs, order="grevlex")
        leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
        counts = [
            sum(
                1
                for e in exponent_vectors(model.generator_degrees, n)
                if not any(divides(g, e) for g in leads)
            )
            for n in range(bound + 1)
        ]
        assert counts == model.dims

    @pytest.mark.parametrize("D, bound, expected", ORACLE_ROWS)
    def test_wahl_count_for_rational_singularities(self, D, bound, expected):
        # (e - 1)(e - 2)/2 minimal relations for e generators (Wahl 1977)
        # when a < 0, i.e. the singularity is rational
        model = build_section_ring(D, bound)
        e = len(model.generators)
        assert a_invariant(hilbert_series(model)) < 0
        assert len(find_relations(model)) == (e - 1) * (e - 2) // 2 == expected


class TestHilbertSeries:
    def test_from_weights_complete_intersection(self):
        hs = HilbertSeries.from_weights([4, 5, 6], [16])
        assert hs.numerator == (1,) + (0,) * 15 + (-1,)
        assert hs.denominator_exponents == (4, 5, 6)

    def test_expand_matches_dimension_count(self):
        hs = HilbertSeries((1,), (1, 1))
        assert hs.expand(4) == [1, 2, 3, 4, 5]

    def test_trailing_zero_numerator_trimmed(self):
        assert HilbertSeries((1, 0, 0), (1,)).numerator == (1,)

    def test_zero_numerator_rejected(self):
        with pytest.raises(ValueError):
            HilbertSeries((0, 0), (1,))

    def test_fit_failure_on_incomplete_generators(self):
        model = build_section_ring(D_SCROLL)
        # drop both degree-7 generators: no polynomial numerator exists
        # over the remaining weights {3, 5}
        model.generators = model.generators[:2]
        with pytest.raises(FitFailedError):
            hilbert_series(model)

    def test_equivalent_presentation_still_fits(self):
        """A fit does not certify a generator list: without its degree-3
        generator (B* = 3) the half-integer model has weights {2, 2}, and
        its series still fits as (1 + t^3)/(1 - t^2)^2, since
        (1 - t^6) / (1 - t^3) = 1 + t^3."""
        model = build_section_ring(D_HALF)
        model.generators = model.generators[:2]
        hs = hilbert_series(model)
        assert hs.numerator == (1, 0, 0, 1)
        assert hs.denominator_exponents == (2, 2)


class TestTomari:
    def test_weight_spec_values(self):
        assert tomari_limit(HilbertSeries.from_weights([4, 5, 6], [16]), 2) == F(2, 15)
        assert tomari_limit(HilbertSeries.from_weights([3, 2, 1], [6]), 2) == F(1)

    def test_a_invariant_values(self):
        assert a_invariant(HilbertSeries.from_weights([3, 2, 1], [6])) == 0
        assert a_invariant(HilbertSeries.from_weights([1, 1], [])) == -2

    def test_pole_order_mismatch(self):
        hs = HilbertSeries.from_weights([1, 1], [2])
        with pytest.raises(PoleOrderMismatchError):
            tomari_limit(hs, 2)


def hilbert_basis_degrees(a: F, b: F, bound: int) -> list[int]:
    """The n-coordinates, in order, of the irreducible elements with n <= bound
    of the monoid {(n, j) : n >= 1, -floor(n*a) <= j <= floor(n*b)} plus 0.

    Brute force over the splits n = n1 + n2: the sums of the degree-n1 and
    degree-n2 elements fill the interval of integers between the sums of
    the interval ends, and (n, j) is irreducible when no split reaches j.
    """

    def interval(n):
        return -math.floor(n * a), math.floor(n * b)

    degrees = []
    for n in range(1, bound + 1):
        lo, hi = interval(n)
        sums = []
        for n1 in range(1, n // 2 + 1):
            (lo1, hi1), (lo2, hi2) = interval(n1), interval(n - n1)
            if lo1 <= hi1 and lo2 <= hi2:
                sums.append((lo1 + lo2, hi1 + hi2))
        degrees += [n for j in range(lo, hi + 1) if not any(s <= j <= t for s, t in sums)]
    return degrees


# 0, inf and a few small rationals; coefficients k/q with q <= 7 and
# |k| <= q keep the pieces small and give divisors of small positive degree,
# where the generator bound lies above the denominator
TORIC_COORDS = [F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3)]
toric_points = st.sampled_from([P1_INFINITY] + [FiniteP1(c) for c in TORIC_COORDS])
toric_coefficients = st.sampled_from(
    sorted({F(k, q) for q in range(1, 8) for k in range(-q, q + 1)})
)


class TestToricOracle:
    """A divisor a*[x] + b*[y] on at most two points is toric: the
    automorphism of the line taking x to 0 and y to inf turns R_n into the
    span of w^j with -floor(n*a) <= j <= floor(n*b), so the generators of
    the ring are the irreducible elements of that monoid."""

    def model_degrees(self, D):
        top = SectionRing(D).generator_bound
        return build_section_ring(D, top + 1).generator_degrees, top + 1

    @given(toric_points, toric_points, toric_coefficients, toric_coefficients)
    @settings(max_examples=100)
    def test_generators_are_the_hilbert_basis(self, x, y, a, b):
        assume(x != y and a + b > 0)
        degrees, bound = self.model_degrees(d({x: a, y: b}))
        assert degrees == hilbert_basis_degrees(a, b, bound)

    @given(toric_points, toric_coefficients)
    @settings(max_examples=50)
    def test_one_point(self, x, a):
        assume(a > 0)
        degrees, bound = self.model_degrees(d({x: a}))
        assert degrees == hilbert_basis_degrees(a, F(0), bound)

    def test_scroll(self):
        degrees, bound = self.model_degrees(D_SCROLL)
        assert degrees == hilbert_basis_degrees(F(5, 7), F(-4, 7), bound) == [3, 5, 7, 7]
