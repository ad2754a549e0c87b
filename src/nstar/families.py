"""Closed-form generator families.

Four families ship with closed evaluation, inversion and slope density:

* power           phi(x) = |x|^p, 0 < p < 1
* power_scaled    phi(x) = |x|^p / p^p
* alpha_exp       phi(x) = (alpha |x|)^(1/alpha), alpha > 1
* log_sqrt        phi(x) = sqrt(log(1 + |x|))

plus "tabulated_density" which interpolates user-supplied (t, p(t)) samples
log-log linearly; the interpolant is a power law on each piece, so it is
integrated and inverted in closed form, without quadrature. The three
power-shaped families carry closed complementary generators and declare
their homogeneity degree (NStarFunction.degree), as their complements
do; no other generator declares one, not even a table whose pieces share
one slope. The complement of log_sqrt, of a tabulated density or of a
generator from from_density is computed by calculus.complementary, which
inverts Young's equality hat(phi(x)/p(x) - x) = 1/p(x) point by point.
No family runs a quadrature; only from_density, outside every document,
integrates one. Each constructor checks its parameters' values; the
generator documents that name these families live in documents.py.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .calculus import NStarFunction
from .errors import DomainError
from .numerics import LogLogLinear

__all__ = [
    "power_family",
    "scaled_power_family",
    "alpha_exp_family",
    "log_sqrt_family",
    "tabulated_density_family",
    "from_density",
]


def _scaled_power(coeff: float, p: float, label: str) -> NStarFunction:
    """Concave power phi(x) = coeff * |x|^p for 0 < p < 1, homogeneous of degree p, with closed complement."""
    c, q = float(coeff), float(p)

    def eval_fn(a):
        return c * np.asarray(a, dtype=float) ** q

    def inverse_fn(y):
        return (np.asarray(y, dtype=float) / c) ** (1.0 / q)

    def density_fn(t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return c * q * t_arr ** (q - 1.0)

    def complement() -> NStarFunction:
        c_hat = 1.0 / ((1.0 - q) ** (1.0 - q) * q**q * c)
        return _scaled_power(c_hat, 1.0 - q, f"complementary({label})")

    return NStarFunction(
        density=density_fn,
        eval_fn=eval_fn,
        inverse_fn=inverse_fn,
        description=label,
        registered_complementary=complement,
        degree=q,
    )


def power_family(p: float) -> NStarFunction:
    """phi(x) = |x|^p for 0 < p < 1."""
    if not 0 < p < 1:
        raise DomainError("power exponent must lie in (0, 1)")
    return _scaled_power(1.0, p, f"power(p={p:g})")


def scaled_power_family(p: float) -> NStarFunction:
    """phi(x) = |x|^p / p^p for 0 < p < 1; the complement is the same shape in 1-p."""
    if not 0 < p < 1:
        raise DomainError("power exponent must lie in (0, 1)")
    return _scaled_power(p ** (-p), p, f"power_scaled(p={p:g})")


def alpha_exp_family(alpha: float) -> NStarFunction:
    """phi(x) = (alpha |x|)^(1/alpha) = exp(log(alpha |x|) / alpha) for alpha > 1."""
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
    a = float(alpha)
    return _scaled_power(a ** (1.0 / a), 1.0 / a, f"alpha_exp(alpha={a:g})")


def log_sqrt_family() -> NStarFunction:
    """phi(x) = sqrt(log(1 + |x|)); inverse expm1(y^2); no closed complement."""

    def eval_fn(a):
        return np.sqrt(np.log1p(np.asarray(a, dtype=float)))

    def inverse_fn(y):
        return np.expm1(np.asarray(y, dtype=float) ** 2)

    def density_fn(t):
        t_arr = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 1.0 / (2.0 * (t_arr + 1.0) * np.sqrt(np.log1p(t_arr)))
        return np.where(t_arr > 0, out, np.inf)

    return NStarFunction(
        density=density_fn,
        eval_fn=eval_fn,
        inverse_fn=inverse_fn,
        description="log_sqrt",
    )


def tabulated_density_family(ts, ps, description: str = "tabulated_density") -> NStarFunction:
    """Generator integrated from sampled (t, p(t)) pairs.

    Samples are interpolated linearly in log-log coordinates and continued
    beyond the table with the edge slopes, which preserves power-law decay
    and the singularity at the origin. Each piece is a power law, so the
    generator and its inverse are the interpolant's closed-form integral
    and integral inverse (LogLogLinear.integral, integral_inverse).
    LogLogLinear checks the samples' shape, positivity and order; the
    values must also be non-increasing, and the low-edge slope must exceed
    -1, or the integral diverges at 0 (DomainError for each). A top-edge
    slope below -1 gives a bounded generator, whose inverse raises
    NonconvergenceError above the bound.
    """
    density = LogLogLinear(ts, ps)
    if np.any(np.diff(np.asarray(ps, dtype=float)) > 0):
        raise DomainError("density samples must be non-increasing")
    if not density.lo_slope > -1:
        raise DomainError(
            f"the density's low-edge slope {density.lo_slope:.6g} in log-log is not above -1,"
            " so its integral diverges at 0"
        )
    return NStarFunction(
        density=density,
        eval_fn=density.integral,
        inverse_fn=density.integral_inverse,
        description=description,
    )


def from_density(density: Callable, description: str = "") -> NStarFunction:
    """Generator defined only through its slope density, integrated to 1e-8 by CumulativeIntegral."""
    return NStarFunction(density=density, description=description or "from_density")
