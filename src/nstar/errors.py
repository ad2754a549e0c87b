"""Semantic exception hierarchy for the toolkit.

Public functions raise these instead of bare ValueError/RuntimeError, and
the class says which of two kinds an error is:

* argument errors, DomainError and its subclasses: the inputs lie outside
  what the operation accepts, whether the CLI, a document or a library
  function found it. The command line exits 2 on them.
* computation failures, every other NStarError: a solver or construction
  that accepted its arguments could not reach or certify its result. The
  command line exits 1 on them, as on a failed asserted check.
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
    "DocumentError",
]


class NStarError(Exception):
    """Base error for this package."""


class DomainError(NStarError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidDensityError(DomainError):
    """A density violates its monotonicity/positivity contract."""


class DivergedIntegralError(NStarError):
    """Quadrature refinement failed to converge (non-integrable density)."""


class NonconvergenceError(NStarError):
    """A solver or construction that accepted its arguments could not reach or certify its result."""


class NotDelta2Error(NStarError):
    """The doubling hypothesis 2*phi(x) <= phi(k0*x) fails on the sample grid."""


class SpaceMismatchError(DomainError):
    """Operands live on different measure spaces."""


class IndivisibleAtomsError(DomainError):
    """A subdivision was requested on an atomic space, which cannot split."""


class CapacityError(DomainError):
    """More pieces were requested than the space can provide."""


class DocumentError(DomainError):
    """A configuration document failed to parse or validate."""
