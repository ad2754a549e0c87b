"""Compute reference values of the log_sqrt complementary generator with mpmath.

    python3 benchmarks/make_refs.py   # rewrites benchmarks/refs/log_sqrt_complement.json

phi(x) = sqrt(log(1 + x)) has inverse M(s) = expm1(s^2), a convex function
with slope M'(s) = 2 s exp(s^2). Its conjugate M*(t) = t s - M(s) at the
point where M'(s) = t has the closed solution 2 s^2 = W(t^2 / 2) (Lambert
W). The complementary generator is the inverse of M*, found here by
bisection at 50 digits. This route uses no quadrature, no tables and no
code from nstar, so it is independent of the numeric pipeline it checks.
The grid is the 41-point product-identity grid of the check suite.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "refs" / "log_sqrt_complement.json"
GRID_LO, GRID_HI, GRID_POINTS = 1e-4, 1e4, 41


def conjugate(t):
    s = mp.sqrt(mp.lambertw(t * t / 2).real / 2)
    return t * s - mp.expm1(s * s)


def complement(x):
    x = mp.mpf(x)
    lo, hi = mp.mpf("1e-30"), mp.mpf("1e30")
    for _ in range(400):
        mid = mp.sqrt(lo * hi)
        if conjugate(mid) < x:
            lo = mid
        else:
            hi = mid
    return mp.sqrt(lo * hi)


def main() -> None:
    import numpy as np

    mp.mp.dps = 50
    # the exact float64 grid the check suite evaluates on
    grid = [float(x) for x in np.geomspace(GRID_LO, GRID_HI, GRID_POINTS)]
    values = [float(complement(x)) for x in grid]
    OUT.parent.mkdir(exist_ok=True)
    doc = {
        "generator": "log_sqrt: phi(x) = sqrt(log(1 + x))",
        "method": "inverse of M*(t) = t s - expm1(s^2), 2 s^2 = W(t^2/2); mpmath bisection, 50 digits",
        "x": grid,
        "complement": values,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
