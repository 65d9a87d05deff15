"""Numerical semigroups and the chain criterion."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsection.errors import GcdNotOneError, NotSemigroupLikeError
from qsection.prime_elements import QuotientProfile
from qsection.semigroups import (
    NumericalSemigroup,
    a_invariant_via_semigroup,
    frobenius,
    rational_singularity_criterion,
    semigroup_from_profile,
)


class TestNumericalSemigroup:
    def test_357(self):
        H = NumericalSemigroup([3, 5, 7])
        assert H.gaps == (1, 2, 4)
        assert frobenius(H) == 4
        assert H.multiplicity == 3
        assert H.minimal_generators == (3, 5, 7)
        assert H.embedding_dimension == 3

    def test_23(self):
        H = NumericalSemigroup([2, 3])
        assert H.gaps == (1,)
        assert H.frobenius == 1

    def test_full_semigroup(self):
        H = NumericalSemigroup([1])
        assert H.gaps == ()
        assert H.frobenius == -1
        assert H.multiplicity == 1

    def test_membership(self):
        H = NumericalSemigroup([3, 5])
        inside = {0, 3, 5, 6, 8, 9, 10, 11, 12}
        for n in range(13):
            assert (n in H) == (n in inside)
        assert -1 not in H
        assert 1000 in H

    def test_redundant_generator_dropped(self):
        H = NumericalSemigroup([3, 5, 8, 10])
        assert H.minimal_generators == (3, 5)

    def test_gcd_not_one_rejected(self):
        with pytest.raises(GcdNotOneError):
            NumericalSemigroup([4, 6])

    def test_bad_generators_rejected(self):
        with pytest.raises(ValueError):
            NumericalSemigroup([])
        with pytest.raises(ValueError):
            NumericalSemigroup([0, 3])

    @given(st.integers(2, 30), st.integers(2, 30))
    def test_two_generator_frobenius_formula(self, a, b):
        import math

        if math.gcd(a, b) != 1:
            return
        assert NumericalSemigroup([a, b]).frobenius == a * b - a - b

    @given(
        st.lists(st.integers(2, 40), min_size=2, max_size=5).filter(
            lambda g: __import__("math").gcd(*g) == 1
        )
    )
    def test_sieve_termination_certificate(self, gens):
        # once multiplicity-many consecutive members appear, everything
        # larger is a member: check well past the sieve window
        H = NumericalSemigroup(gens)
        start = H.frobenius + 1
        assert all((start + k) in H for k in range(100))


def make_profile(degree, support_gens, s, bound):
    H = NumericalSemigroup(support_gens)
    dims = [0] * (bound + 1)
    dims[0] = 1
    for n in range(1, bound // s + 1):
        if n in H:
            dims[n * s] = 1
    return QuotientProfile(degree=degree, dims=tuple(dims), s=s, bound=bound)


class TestFromProfile:
    def test_scroll_quotient(self):
        prof = make_profile(7, [3, 5, 7], 1, 21)
        H = semigroup_from_profile(prof)
        assert H.generators == (3, 5, 7)

    def test_rescaled_quotient(self):
        # support {14, 21, 28, ...}: s = 7, rescaled semigroup <2, 3>
        prof = make_profile(6, [2, 3], 7, 98)
        H = semigroup_from_profile(prof)
        assert H.generators == (2, 3)

    def test_polynomial_ring_profile(self):
        prof = make_profile(1, [1], 1, 6)
        assert semigroup_from_profile(prof).generators == (1,)

    def test_dim_above_one_rejected(self):
        dims = (1, 0, 2, 1)
        prof = QuotientProfile(degree=2, dims=dims, s=1, bound=3)
        with pytest.raises(NotSemigroupLikeError):
            semigroup_from_profile(prof)

    def test_non_closed_support_rejected(self):
        # support {2, 3} but 5 missing: not closed under addition
        dims = (1, 0, 1, 1, 1, 0, 1)
        prof = QuotientProfile(degree=1, dims=dims, s=1, bound=6)
        with pytest.raises(NotSemigroupLikeError):
            semigroup_from_profile(prof)

    def test_empty_support_rejected(self):
        prof = QuotientProfile(degree=1, dims=(1, 0, 0), s=1, bound=2)
        with pytest.raises(NotSemigroupLikeError):
            semigroup_from_profile(prof)


class TestAInvariant:
    def test_scroll(self):
        assert a_invariant_via_semigroup(NumericalSemigroup([3, 5, 7]), 7) == -3

    def test_deg_one(self):
        assert a_invariant_via_semigroup(NumericalSemigroup([2, 3]), 1) == 0

    def test_polynomial_ring(self):
        assert a_invariant_via_semigroup(NumericalSemigroup([1]), 1) == -2

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            a_invariant_via_semigroup(NumericalSemigroup([2, 3]), 0)


class TestRatSingCriterion:
    def test_scroll_chain_holds(self):
        rep = rational_singularity_criterion(7, [7, 5, 3])
        assert rep.chain_holds
        assert rep.degrees == (7, 5, 3)
        assert rep.r == 3
        assert rep.frobenius == 4
        assert rep.a_invariant == -3
        assert rep.minimal_multiplicity

    def test_degree_one_chain_fails(self):
        rep = rational_singularity_criterion(1, [3, 2])
        assert not rep.chain_holds          # needs r + x0 = 3 > 3
        assert rep.r == 2
        assert rep.a_invariant == 0

    def test_degenerate_single_generator(self):
        rep = rational_singularity_criterion(5, [1])
        assert rep.chain_holds

    def test_duplicates_break_chain(self):
        rep = rational_singularity_criterion(7, [3, 3, 2, 1])
        assert rep.had_duplicates
        assert not rep.chain_holds

    def test_tail_must_equal_length(self):
        rep = rational_singularity_criterion(9, [4, 3, 2])       # x_r = 2 but r = 3
        assert not rep.chain_holds

    def test_requires_degrees(self):
        with pytest.raises(ValueError):
            rational_singularity_criterion(3, [])


@st.composite
def apery_semigroups(draw):
    """Semigroups of minimal multiplicity via their Apery sets.

    Pick a multiplicity r and, for each residue i in 1..r-1, one generator
    congruent to i mod r.  The result has multiplicity r and embedding
    dimension r, and its Frobenius number is max(generators) - r.
    """
    r = draw(st.integers(2, 6))
    gens = [r]
    for i in range(1, r):
        k = draw(st.integers(1, 5))
        gens.append(i + r * k)
    return r, gens


@given(apery_semigroups(), st.integers(1, 12))
@settings(max_examples=300)
def test_chain_criterion_matches_negative_a_invariant(draw, x0):
    """Both directions of the chain test against the a-invariant sign.

    For a semigroup of minimal multiplicity (multiplicity == embedding
    dimension r), the Apery set of the multiplicity is {0} together with
    the other minimal generators, so frobenius == x_1 - r.  Feeding the
    minimal generators to the chain criterion, the inequality
    r + x0 > x_1 > ... > x_r = r then holds exactly when
    frobenius - x0 < 0.
    """
    r, gens = draw
    H = NumericalSemigroup(gens)
    mingens = H.minimal_generators
    assume(H.multiplicity == len(mingens))
    rep = rational_singularity_criterion(x0, mingens)
    assert rep.chain_holds == (rep.a_invariant < 0)
    if rep.chain_holds:
        assert rep.minimal_multiplicity


@given(apery_semigroups())
@settings(max_examples=300)
def test_apery_frobenius_oracle(draw):
    """Frobenius equals the largest Apery element minus the multiplicity.

    The Apery set is recomputed here by direct scan (smallest member in
    each residue class), independent of the gap-list route used by the
    implementation.
    """
    r, gens = draw
    H = NumericalSemigroup(gens)
    m = H.multiplicity
    apery = []
    for i in range(m):
        n = i
        while n not in H:
            n += m
        apery.append(n)
    assert H.frobenius == max(apery) - m
