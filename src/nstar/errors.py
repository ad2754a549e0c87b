"""Semantic exception hierarchy for the toolkit.

Public functions raise these instead of bare ValueError/RuntimeError, and
the class says which of two kinds an error is:

* argument errors, DomainError: the inputs lie outside what the
  operation accepts, whether the CLI, a document or a library function
  found it, including a space that cannot carry what was asked of it.
  The command line exits 2 on them.
* computation failures, NonconvergenceError: a solver or construction
  that accepted its arguments could not reach or certify its result. The
  command line exits 1 on them, as on a failed asserted check.
"""

__all__ = ["NStarError", "DomainError", "NonconvergenceError"]


class NStarError(Exception):
    """Base error for this package."""


class DomainError(NStarError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonconvergenceError(NStarError):
    """A solver or construction that accepted its arguments could not reach or certify its result."""
