"""Exact section rings of rational divisors on curves.

The package realizes the graded ring R(X,D) = sum_n H0(X, floor(nD)) T^n
for a Q-divisor D on the projective line or an elliptic curve, entirely in
exact rational (or small number-field) arithmetic: Riemann-Roch bases,
generator and relation discovery, Hilbert series, the Tomari degree limit,
and the decision, construction and enumeration machinery for homogeneous
principal prime ideals, each verdict double-checked by a brute-force
oracle.  Numerical-semigroup reports and a chain criterion for rational
singularities of the quotients round out the toolkit.
"""

from .divisors import (
    EC_ORIGIN,
    P1_INFINITY,
    CurvePoint,
    ECAffine,
    ECOrigin,
    FiniteP1,
    InfinityP1,
    ProjectiveLine,
    QDivisor,
)
from .elliptic import (
    ECPrimeVerdict,
    WeierstrassCurve,
    ec_add,
    ec_divisor_sum,
    ec_is_principal,
    ec_multiply,
    ec_negate,
    ec_prime_exists,
)
from .errors import (
    BoundTooSmallError,
    BoundTooSmallWarning,
    FitFailedError,
    GcdNotOneError,
    HypothesisViolatedError,
    IrrationalZerosError,
    MembershipError,
    MixedCurveError,
    NegativeDimError,
    NotAmpleError,
    NotLinearlyEquivalentError,
    NotSemigroupLikeError,
    PoleOrderMismatchError,
    QSectionError,
    ReducibleModulusError,
    SchemaError,
    ZeroCandidateError,
)
from .exact_arith import (
    NumberField,
    NumberFieldElem,
    Poly,
    poly_divrem,
    poly_gcd,
    poly_xgcd,
    rational,
)
from .p1 import (
    RationalFunctionP1,
    divisor_of,
    principal_function,
    rr_basis,
)
from .prime_elements import (
    NecessaryReport,
    OracleResult,
    PrimeCandidate,
    PrimeVerdict,
    QuotientProfile,
    construct_prime,
    enumerate_primes,
    necessary_check,
    primality_oracle,
    quotient_profile,
    veronese_transform,
)
from .section_ring import (
    Generator,
    HilbertSeries,
    Relation,
    SectionRing,
    a_invariant,
    build_ring,
    build_section_ring,
    default_bound,
    find_relations,
    graded_dimension,
    hilbert_series,
    tomari_limit,
)
from .semigroups import (
    NumericalSemigroup,
    RatSingReport,
    a_invariant_semigroup,
    a_invariant_via_semigroup,
    frobenius,
    rational_singularity_criterion,
    ratsing_criterion,
    semigroup_from_profile,
)

__version__ = "0.1.0"
