"""Exception types shared across the package, and one warning class."""


class QSectionError(Exception):
    """Base class for domain errors raised by this package."""


class NotAmpleError(QSectionError):
    """The divisor has degree <= 0, so no graded model can be built."""


class IrrationalZerosError(QSectionError):
    """A polynomial does not split into linear factors over the input field."""


class MembershipError(QSectionError):
    """A function does not lie in the graded piece it was offered to."""


class FitFailedError(QSectionError):
    """No integer-polynomial numerator matches the computed dimensions."""


class PoleOrderMismatchError(QSectionError):
    """The series pole order at t = 1 differs from the stated dimension."""


class NegativeDimError(QSectionError):
    """A quotient dimension came out negative; the input data is inconsistent."""


class ZeroCandidateError(QSectionError):
    """A prime candidate is the zero function."""


class BoundTooSmallError(QSectionError):
    """The truncation bound is too small for the requested computation."""


class HypothesisViolatedError(QSectionError):
    """A construction hypothesis fails, e.g. the point meets the fractional support."""


class NotLinearlyEquivalentError(QSectionError):
    """The scaled divisor is not an integral divisor of degree one."""


class NotSemigroupLikeError(QSectionError):
    """A quotient profile has a graded piece of dimension greater than one."""


class GcdNotOneError(QSectionError):
    """Semigroup generators with gcd != 1 describe no numerical semigroup."""


class ReducibleModulusError(QSectionError):
    """Inversion met a nontrivial factor of the declared minimal polynomial."""


class MixedCurveError(QSectionError):
    """Points or divisors from different curves were combined."""


class SchemaError(QSectionError):
    """Input JSON does not conform to the documented schema."""


class BoundTooSmallWarning(UserWarning):
    """Nothing raises it: every model reaches the proven generator bound B*.

    Kept because the acceptance suite imports it."""
