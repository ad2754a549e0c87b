"""Semantic exception hierarchy for the toolkit.

Public functions raise these instead of bare ValueError/RuntimeError so
callers can distinguish contract violations from numerical failures.
"""

__all__ = [
    "NStarError",
    "DomainError",
    "InvalidDensityError",
    "DivergedIntegralError",
    "NonconvergenceError",
    "NotDelta2Error",
    "SpaceMismatchError",
    "IndivisibleAtomsError",
    "CapacityError",
    "NotApplicableError",
    "DocumentError",
]


class NStarError(Exception):
    """Base error for this package."""


class DomainError(NStarError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidDensityError(NStarError, ValueError):
    """A density violates its monotonicity/positivity contract."""


class DivergedIntegralError(NStarError):
    """Quadrature refinement failed to converge (non-integrable density)."""


class NonconvergenceError(NStarError):
    """An iterative solver could not bracket or close on its target."""


class NotDelta2Error(NStarError):
    """The doubling hypothesis 2*phi(x) <= phi(k0*x) fails on the sample grid."""


class SpaceMismatchError(NStarError, ValueError):
    """Operands live on different measure spaces."""


class IndivisibleAtomsError(NStarError):
    """A subdivision was requested on an atomic space, which cannot split."""


class CapacityError(NStarError, ValueError):
    """More pieces were requested than the space can provide."""


class NotApplicableError(NStarError):
    """The operation requires structure (e.g. an atom) the space lacks."""


class DocumentError(NStarError, ValueError):
    """A configuration document failed to parse or validate."""
