"""Closed forms of the a-invariant and the Tomari limit, as test oracles.

`a_invariant(hilbert_series(model))` and `tomari_limit(hs, 2)` read the
Hilbert series fitted over the model's generator degrees.  Theory gives both
numbers from D alone, without the generator list; this module checks the
fitted values against those closed forms over random divisors.

R = R(P^1, D), D an ample Q-divisor, with R_n = H0(P^1, O(floor(n*D))).

a-invariant.  a(R) = max{n in Z : deg floor(n*D) <= -2}.
  Proof.  R is a normal graded domain of dimension two, so it satisfies
  Serre's S2 and has depth two: it is Cohen-Macaulay.  For a Cohen-Macaulay
  graded ring the a-invariant, max{n : H^2_m(R)_n != 0} in dimension two,
  is the degree of its Hilbert series as a rational function (Bruns and
  Herzog, Cohen-Macaulay Rings, section 4.4), which is what `a_invariant`
  returns.  Demazure's construction (Watanabe 1981, "Some remarks
  concerning Demazure's construction of normal graded rings"; Demazure
  1988, "Anneaux gradues normaux") gives H^2_m(R)_n = H^1(P^1,
  O(floor(n*D))) for every n in Z, and H^1(P^1, O(m)) is dual to
  H^0(P^1, O(-2 - m)), nonzero exactly when m <= -2.  The set is bounded
  above: floor(t) > t - 1, so with k support points deg floor(n*D) >
  n*deg D - k >= 0 for n >= n0 = ceil(k / deg D).  It is not empty:
  deg floor(n*D) <= n*deg D <= -2 once n <= -2 / deg D.  So the scan
  from n0 - 1 down (`closed_form_a`) ends, at the maximum.

Tomari limit.  lim_{t -> 1} (1 - t)^2 HS(t) = deg D.
  Proof.  For n >= n0, dim R_n = deg floor(n*D) + 1 = n*deg D + 1 - phi(n)
  with phi(n) = sum_x {n*c_x} periodic mod N, the common denominator.  So
  HS(t) = deg D * sum_n n t^n + P(t) / (1 - t^N) + F(t), with P and F
  polynomials (P collects the periodic part 1 - phi, F the degrees below
  n0 and the correction of the first sum there).  (1 - t)^2 * sum_n n t^n =
  t, while (1 - t)^2 / (1 - t^N) and (1 - t)^2 vanish at t = 1.  The limit
  is deg D > 0, so the pole at t = 1 has order exactly two, as
  `tomari_limit(hs, 2)` demands.
"""

import math
from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.section_ring import SectionRing, a_invariant, hilbert_series, tomari_limit

P1 = ProjectiveLine()
POINTS = (FiniteP1(0), FiniteP1(1), FiniteP1(-1), FiniteP1(F(1, 2)), FiniteP1(3), P1_INFINITY)


def floor_degree(D: QDivisor, n: int) -> int:
    """deg floor(n*D), by Fraction floors."""
    return sum(math.floor(n * c) for _, c in D.entries)


def closed_form_a(D: QDivisor) -> int:
    """max{n in Z : deg floor(n*D) <= -2}, scanned down from n0 - 1."""
    n = math.ceil(len(D.entries) / D.degree()) - 1
    while floor_degree(D, n) > -2:
        n -= 1
    return n


@st.composite
def ample_divisors(draw):
    """An ample divisor on 1-4 points with denominators up to 6 and B* at
    most 24."""
    points = draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=4, unique=True))
    coeffs = [F(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 6))) for _ in points]
    assume(sum(coeffs) > 0)
    D = QDivisor(P1, dict(zip(points, coeffs)))
    assume(SectionRing(D).generator_bound <= 24)
    return D


@given(ample_divisors())
@settings(max_examples=200)
def test_fitted_invariants_equal_their_closed_forms(D):
    hs = hilbert_series(SectionRing(D).extend())
    assert a_invariant(hs) == closed_form_a(D)
    assert tomari_limit(hs, 2) == D.degree()


def test_closed_forms_of_worked_examples():
    """The half-integer ring 1/2([0] + [inf] - [1]) is k[x, y, z] / (a
    relation of degree 6) on generators of degrees 2, 2, 3 (README): a = -1;
    the polynomial ring of 1*[inf] has a = -2."""
    half = QDivisor(P1, {FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
    assert closed_form_a(half) == 6 - (2 + 2 + 3) == -1
    assert closed_form_a(QDivisor(P1, {P1_INFINITY: 1})) == -2
