"""Reference computations shared by the tests.

The mpmath oracles evaluate their quantity at 30-40 digits, by a route
that runs no nstar code. A helper that imports mpmath itself skips the
calling test when mpmath is missing; mp_bump_modulars takes the module
from its caller, which skips. rule_sum is measure's sum rule on whole
arrays, in plain numpy.
"""

import math

import numpy as np
import pytest

# cells per piece of the sum rule; nstar.measure.BLOCK holds the same number
RULE_PIECE = 2**13


def rule_sum(x, y):
    """Sum of x_i * y_i by the sum rule: math.fsum of np.dot over consecutive pieces of RULE_PIECE cells."""
    return math.fsum(np.dot(x[a : a + RULE_PIECE], y[a : a + RULE_PIECE]) for a in range(0, len(x), RULE_PIECE))


def log_sqrt_complement_mp(y, dps=40):
    """The log_sqrt complement at y, in mpmath, by the Lambert W function.

    M(s) = expm1(s^2) inverts phi; its conjugate M*(t) = t s - M(s) at
    M'(s) = 2 s exp(s^2) = t has 2 s^2 = W(t^2 / 2), and the complement
    inverts M* by geometric bisection over [1e-400, 1e400]. No quadrature,
    table or nstar code on this route.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = dps

    def conjugate(t):
        s = mp.sqrt(mp.lambertw(t * t / 2).real / 2)
        return t * s - mp.expm1(s * s)

    y = mp.mpf(float(y))
    lo, hi = mp.mpf("1e-400"), mp.mpf("1e400")
    for _ in range(160):
        mid = mp.sqrt(lo * hi)
        lo, hi = (mid, hi) if conjugate(mid) < y else (lo, mid)
    return float(mp.sqrt(lo * hi))


def mp_bump_modulars(mpmath, masses, epsilon, n):
    """rho(h_m) = sum_{k<=m} phi(beta_k / m) mu_k for phi = sqrt(log(1+x)), in 40-digit mpmath."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    mus = [mp.mpf(float(mu)) for mu in masses[:n]]
    betas = [mp.expm1((mp.mpf(float(epsilon)) / mu) ** 2) for mu in mus]
    return [
        float(mp.fsum(mp.sqrt(mp.log1p(beta / m)) * mu for beta, mu in zip(betas[:m], mus[:m])))
        for m in range(1, n + 1)
    ]


def mp_table_integral(ts, ps, x):
    """Integral over (0, x] of the piecewise power law through (ts, ps), in 30-digit mpmath.

    The exponents come from the samples in mpmath precision. The low piece
    integrates in closed form (its t^a singularity at 0 defeats quad for a
    near -1); mpmath.quad integrates the rest piece by piece.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    ts = [mp.mpf(float(t)) for t in ts]
    ps = [mp.mpf(float(p)) for p in ps]
    a = [mp.log(ps[k + 1] / ps[k]) / mp.log(ts[k + 1] / ts[k]) for k in range(len(ts) - 1)]

    def density(t):
        k = min(max(sum(1 for tk in ts if tk <= t) - 1, 0), len(a) - 1)
        return ps[k] * (t / ts[k]) ** a[k]

    x = mp.mpf(float(x))
    b = a[0] + 1
    if x <= ts[0]:
        return float(ps[0] * ts[0] / b * (x / ts[0]) ** b)
    return float(ps[0] * ts[0] / b + mp.quad(density, [t for t in ts if t < x] + [x]))


def mp_power_norm(masses, values, c, q, dps=40):
    """Luxemburg norm under phi = c |x|^q, in mpmath: (sum of a_i c |f_i|^q)^(1/q).

    The masses, values, c and q are taken as the floats they are stored
    as, so the oracle is the exact norm of what the code holds. A norm
    past the float range gives inf or 0.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = dps
    c, q = mp.mpf(float(c)), mp.mpf(float(q))
    total = mp.fsum(mp.mpf(float(a)) * c * abs(mp.mpf(float(v))) ** q for a, v in zip(masses, values))
    return float(total ** (1 / q))
