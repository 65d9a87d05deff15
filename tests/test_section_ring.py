"""Section-ring models: pieces, generators, relations, Hilbert data.

The frozen expectations here were derived by hand from the divisor degree
formula dim R_n = deg floor(nD) + 1 and direct expansion of the candidate
relations; the model code must reproduce them exactly.
"""

import itertools
import math
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.errors import (
    BoundTooSmallWarning,
    FitFailedError,
    MembershipError,
    NotAmpleError,
    PoleOrderMismatchError,
)
from qsection.exact_arith import NumberField, Poly
from qsection.linalg import SpanBuilder, kernel_basis
from qsection.p1 import RationalFunctionP1, rr_basis
from qsection.section_ring import (
    Generator,
    HilbertSeries,
    Piece,
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
        assert piece.coords(rf((0,))) == [F(0), F(0)]


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

    def test_default_bound_three_periods(self):
        assert default_bound(D_HALF) == 6
        assert default_bound(D_SCROLL) == 21

    def test_generator_at_bound_warns(self):
        with pytest.warns(BoundTooSmallWarning):
            build_section_ring(D_HALF, 3)

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
    @pytest.mark.parametrize("D, start, target", [(D_HALF, 6, 8), (D_42, 42, 84)])
    def test_extended_model_equals_fresh_build(self, D, start, target):
        extended = build_section_ring(D, start)
        # cached relations and series of the smaller model must not survive
        find_relations(extended)
        hilbert_series(extended)
        extended.extend(target)
        fresh = build_section_ring(D, target)
        assert extended.bound == fresh.bound == target
        assert extended.dims == fresh.dims
        assert extended.generators == fresh.generators
        assert find_relations(extended) == find_relations(fresh)
        assert hilbert_series(extended) == hilbert_series(fresh)
        assert extended.irredundant == fresh.irredundant
        assert extended.generators_at_bound == fresh.generators_at_bound


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
        k = sum(1 for pt, _ in D.entries if pt != P1_INFINITY)
        for a in range(25):
            for b in range(25):
                coeffs, B = model.carry(a, b)
                assert Poly(coeffs).scale(F(1, B)) == carry_poly(D, a, b)
        assert len(model._carry_memo) <= 2**k


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


small_coefficients = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def rational_divisors(draw):
    """A rational divisor on 1-2 finite points and infinity, of degree 1/3,
    1/2 or 2/3, with finite coefficient denominators <= 3.

    The degree cap keeps the pieces small enough for number-field
    elimination, which is about a hundred times slower than the integer path.
    """
    coords = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2, unique=True))
    entries = {
        FiniteP1(F(c, draw(st.integers(1, 2)))): draw(small_coefficients) for c in coords
    }
    degree = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]))
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundTooSmallWarning)
            model = build_section_ring(D, 8)
            model_nf = build_section_ring(D_nf, 8)
        assert model.dims == model_nf.dims
        assert [(g.degree, g.column) for g in model.generators] == [
            (g.degree, g.column) for g in model_nf.generators
        ]
        assert all(B == 1 for _, B in model_nf._carry_memo.values())
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
                model.generators.append(Generator(n, len(model.generators), j, piece))
    model.bound = bound
    return model


@st.composite
def ring_cases(draw):
    """A divisor on 2-4 points of degree at most one, and a bound.

    The coefficients are k/q with q <= 6 and k != 0 of either sign; the
    last one fixes the degree.  Over Q the bound is B* + 2N.  One draw in
    four puts the divisor on the line over Q(sqrt 2), with a point at
    sqrt(2) + c, q <= 3 and a bound <= 8.
    """
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundTooSmallWarning)
            model = build_section_ring(D, bound)
        ref = reference_extend(D, bound)
        assert [(g.degree, g.column) for g in model.generators] == [
            (g.degree, g.column) for g in ref.generators
        ]
        assert model.dims == ref.dims
        at_bound = bound in ref.generator_degrees
        assert model.generators_at_bound == at_bound
        assert len(caught) == at_bound
        if D.curve.field is None:  # the bound is B* + 2N
            assert max(ref.generator_degrees) <= model.generator_bound
        # the kernel dimension that find_relations counts on, in every degree
        for n in range(1, bound + 1):
            monos = exponent_vectors(ref.generator_degrees, n)
            piece = ref.piece(n)
            columns = []
            for e in monos:
                shift, coeffs, _ = ref.monomial_coords(e)
                columns.append(piece.vector(coeffs, shift))
            assert len(kernel_basis(columns, piece.dim)) == len(monos) - piece.dim


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
        model._hilbert = None
        with pytest.raises(FitFailedError):
            hilbert_series(model)

    def test_equivalent_presentation_still_fits(self):
        # dropping the degree-3 generator of the half-integer model leaves
        # weights {2, 2}, and the same series happens to equal
        # (1 + t^3)/(1-t^2)^2, so the fit legitimately succeeds
        model = build_section_ring(D_HALF)
        model.generators = model.generators[:2]
        model._hilbert = None
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
