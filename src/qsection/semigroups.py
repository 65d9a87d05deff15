"""Numerical semigroups and the degree-chain criterion for quotients.

A numerical semigroup here is the additive closure of a finite generating
set with gcd one.  Membership is computed by a sieve that runs until
`multiplicity` consecutive members appear, past which everything is in the
semigroup; the Frobenius number is the largest gap.

`semigroup_from_profile` turns the support of a quotient profile (all piece
dimensions <= 1) into the semigroup it generates, and
`rational_singularity_criterion` evaluates the descending-chain condition
x_r = r on the generator degrees of such a quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import GcdNotOneError, NotSemigroupLikeError

__all__ = [
    "NumericalSemigroup",
    "RatSingReport",
    "semigroup_from_profile",
    "frobenius",
    "a_invariant_via_semigroup",
    "a_invariant_semigroup",
    "rational_singularity_criterion",
    "ratsing_criterion",
]


@dataclass(frozen=True)
class NumericalSemigroup:
    """Additive closure of a finite set of positive integers with gcd one."""

    generators: tuple[int, ...]

    def __init__(self, generators):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise GcdNotOneError(f"gcd of {gens} is not one")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def _membership(self) -> list[bool]:
        """Sieve of membership flags, long enough to certify all gaps.

        Once `multiplicity` consecutive integers are members, adding the
        multiplicity reaches every later integer, so the sieve may stop.
        """
        mult = self.generators[0]
        member = [True]  # 0 is always a member
        run = 1 if mult == 1 else 0
        n = 0
        while run < mult:
            n += 1
            member.append(
                any(g <= n and member[n - g] for g in self.generators)
            )
            run = run + 1 if member[n] else 0
        return member

    def contains(self, n: int) -> bool:
        member = self._membership
        if n < 0:
            return False
        if n < len(member):
            return member[n]
        return True

    __contains__ = contains

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        member = self._membership
        return tuple(n for n in range(len(member)) if not member[n])

    @cached_property
    def frobenius(self) -> int:
        """Largest integer outside the semigroup; -1 when there is none."""
        return self.gaps[-1] if self.gaps else -1

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @cached_property
    def minimal_generators(self) -> tuple[int, ...]:
        """Generators no proper subset reproduces."""
        minimal = []
        for g in self.generators:
            rest = [h for h in self.generators if h != g]
            if not rest or math.gcd(*rest) != 1:
                reachable = _closure_contains(rest, g)
            else:
                reachable = g in NumericalSemigroup(rest)
            if not reachable:
                minimal.append(g)
        return tuple(minimal)

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)


def _closure_contains(gens: list[int], target: int) -> bool:
    """Whether target is a nonnegative combination of gens (any gcd)."""
    reachable = [False] * (target + 1)
    reachable[0] = True
    for n in range(1, target + 1):
        reachable[n] = any(g <= n and reachable[n - g] for g in gens)
    return reachable[target]


def semigroup_from_profile(profile) -> NumericalSemigroup:
    """The value semigroup of a quotient profile with all dims <= 1.

    Degrees are divided by the profile gcd s first (the Veronese rescaling
    that makes the quotient grading irredundant).  Raises
    NotSemigroupLikeError if some piece has dimension above one (the
    quotient is then not a subring of a one-variable polynomial ring) or if
    the rescaled support is not closed under addition inside the window.
    """
    bad = [n for n in range(1, profile.bound + 1) if profile.dims[n] > 1]
    if bad:
        raise NotSemigroupLikeError(
            f"quotient dimension exceeds one in degrees {bad}"
        )
    support = profile.support()
    if not support:
        raise NotSemigroupLikeError("quotient support is empty up to the bound")
    s = math.gcd(*support)
    scaled = [n // s for n in support]
    H = NumericalSemigroup(scaled)
    mismatch = [
        n * s
        for n in range(1, profile.bound // s + 1)
        if (n in H) != bool(profile.dims[n * s])
    ]
    if mismatch:
        raise NotSemigroupLikeError(
            f"support is not closed under addition at degrees {mismatch}"
        )
    return NumericalSemigroup(H.minimal_generators)


def a_invariant_via_semigroup(H: NumericalSemigroup, x0_degree: int) -> int:
    """a-invariant of a quotient with value semigroup H by a degree-x0 prime.

    For the two-dimensional ring upstairs this is frobenius(H) - x0: the
    quotient contributes its largest gap and dividing by the prime shifts
    the grading down by its degree.
    """
    if x0_degree < 1:
        raise ValueError("the prime degree must be a positive integer")
    return H.frobenius - x0_degree


@dataclass(frozen=True)
class RatSingReport:
    """Evaluation of the descending-chain criterion x_r = r.

    With x_0 the degree of the prime and x_1, ..., x_r the quotient
    generator degrees sorted descending, the chain condition requires the
    strict descent r + x_0 > x_1 > x_2 > ... > x_r together with x_r = r.
    """

    x0: int
    degrees: tuple[int, ...]  # descending, deduplicated
    r: int
    chain_holds: bool
    had_duplicates: bool
    frobenius: int
    a_invariant: int
    minimal_multiplicity: bool


def rational_singularity_criterion(x0_degree: int, other_degrees) -> RatSingReport:
    """Check the chain condition on quotient generator degrees.

    `other_degrees` are the minimal generator degrees of the quotient
    semigroup.  The report also carries the Frobenius number, the resulting
    a-invariant, and whether the semigroup has minimal multiplicity
    (multiplicity equal to embedding dimension).
    """
    degrees = sorted(int(x) for x in other_degrees)
    if x0_degree < 1 or not degrees or degrees[0] < 1:
        raise ValueError("degrees must be positive integers")
    distinct = tuple(sorted(set(degrees), reverse=True))
    had_duplicates = len(distinct) != len(degrees)
    r = len(distinct)
    chain = distinct[-1] == r and (r + x0_degree > distinct[0])
    H = NumericalSemigroup(degrees)
    return RatSingReport(
        x0=x0_degree,
        degrees=distinct,
        r=r,
        chain_holds=chain and not had_duplicates,
        had_duplicates=had_duplicates,
        frobenius=H.frobenius,
        a_invariant=H.frobenius - x0_degree,
        minimal_multiplicity=H.multiplicity == H.embedding_dimension,
    )


def frobenius(H: NumericalSemigroup) -> int:
    """Largest integer outside H (-1 for the full semigroup)."""
    return H.frobenius


# Short names, kept because the acceptance suite imports them.
a_invariant_semigroup = a_invariant_via_semigroup
ratsing_criterion = rational_singularity_criterion
