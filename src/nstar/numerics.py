"""Monotone root finding, cumulative quadrature and log-log interpolants on (0, inf).

Everything here is deterministic and vectorized over numpy arrays. The
integrator, CumulativeIntegral, targets positive densities with an
integrable singularity at the origin. Its mesh covers the whole normal
float range, one segment per binade [2^k, 2^(k+1)], and is built once, on
the first call: the 2046 segments are verified together, one refinement
level per density call (every pending panel and both its halves in one
batch), so a build costs at most 23 calls. The mass below 2^-1022 is
estimated geometrically; a density for which it is not negligible is
reported as divergent, as is one with a non-finite panel value below the
argument. A non-finite argument raises DomainError.

Monotone root finding has one bisection rule, bisect_increasing: midpoints
on the bit patterns of the floats (no overflow or underflow anywhere in the
float range) and a fixed step count that closes every bracket to adjacent
floats. invert_increasing brackets inside the normal float range, with a
growth step that squares after every use, so any float is reached in about
ten evaluations.

Tabulated densities are interpolated linearly in log-log coordinates
(LogLogLinear). The interpolant is a power law on each piece, so its
integral from 0 and the inverse of that integral are closed forms
(LogLogLinear.integral and integral_inverse): a binary search over prefix
sums at the knots, then one expm1 or log1p per point, with no quadrature
mesh and no bisection. CumulativeIntegral remains for densities without
such a form (generators from families.from_density). Its one setting is
fixed: relative tolerance 1e-8.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NonconvergenceError

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)

_TINY_NORMAL = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)

# CumulativeIntegral: relative tolerance on cumulative integrals
_QUAD_TOL = 1e-8


def gauss_panel(g: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """15-point Gauss-Legendre integral of g over each interval [a_i, b_i]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # halves first: a + b overflows on the top binade
    mid = 0.5 * a + 0.5 * b
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * _GL_X
    vals = g(nodes)
    return np.asarray(vals).dot(_GL_W) * half


def on_positive(fn: Callable, x, floor: float = 0.0) -> np.ndarray | float:
    """fn on the entries of x above floor, 0 on the rest, NaN included.

    fn gets those entries as one 1-d array, and no call when there are
    none. Returns a float array of x's shape, or a float for a 0-d x.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > floor
    if pos.any():
        out[pos] = fn(x[pos])
    return float(out) if out.ndim == 0 else out


class CumulativeIntegral:
    """F(t) = integral of g over (0, t], on one mesh over the normal float range.

    The first call with a positive argument builds the mesh. Each binade
    [2^k, 2^(k+1)] of the normal floats, k = -1022..1023 (the top one ends
    at the largest float), is a segment, and all 2046 of them are verified
    together, one refinement level per density call: a panel is accepted
    when its 15-point Gauss value agrees with the sum of its halves to
    0.1 * 1e-8, or after 22 splits, and contributes both halves as leaves.
    The leaves' right ends are the breakpoints, with prefix sums of their
    integrals. F(t) is the prefix sum at the breakpoint below t plus one
    Gauss panel from there to t, so every later call costs 15 density
    nodes per argument.

    The mass below 2^-1022, the bottom two binades continued geometrically
    (exact for a power law), starts the prefix sums; arguments below it
    give 0. When it is more than 1e-8 of the mass below 1, every argument
    above 2^-1022 raises NonconvergenceError. A binade holding a non-finite
    panel value raises it for every argument above the binade's lower end,
    and a non-finite argument raises DomainError.
    """

    def __init__(self, g: Callable):
        self._g = g
        # (breaks, prefix, limit): F's breakpoints from 2^-1022 up, the
        # integral from 2^-1022 to each, and the argument above which F
        # raises; swapped in as one reference, so a concurrent reader sees
        # either no mesh or the whole one
        self._mesh: tuple[np.ndarray, np.ndarray, float] | None = None

    def _build(self) -> tuple[np.ndarray, np.ndarray, float]:
        edges = np.append(np.ldexp(1.0, np.arange(-1022, 1024)), _MAX)
        a, b = edges[:-1], edges[1:]
        owner = np.arange(a.size)
        bad = np.zeros(a.size, dtype=bool)
        lefts, rights, values, owners = [], [], [], []
        # the density is probed from 2^-1022 to the largest float, where
        # overflow and underflow are expected; a non-finite value is flagged
        with np.errstate(all="ignore"):
            for depth in range(23):
                if a.size == 0:
                    break
                n = a.size
                mid = 0.5 * a + 0.5 * b
                vals = gauss_panel(self._g, np.concatenate((a, a, mid)), np.concatenate((b, mid, b)))
                whole, left, right = vals[:n], vals[n : 2 * n], vals[2 * n :]
                refined = left + right
                finite = np.isfinite(whole) & np.isfinite(refined)
                bad[owner[~finite]] = True
                agree = np.abs(whole - refined) <= 0.1 * _QUAD_TOL * (np.abs(refined) + 1e-300)
                accept = finite & (agree | (depth >= 22))
                lefts += [a[accept], mid[accept]]
                rights += [mid[accept], b[accept]]
                values += [left[accept], right[accept]]
                owners += [owner[accept], owner[accept]]
                split = ~accept & ~bad[owner]
                a, b = np.concatenate((a[split], mid[split])), np.concatenate((mid[split], b[split]))
                owner = np.concatenate((owner[split], owner[split]))
            order = np.argsort(np.concatenate(lefts), kind="stable")
            rights, values, owners = (np.concatenate(x)[order] for x in (rights, values, owners))
            mass = np.bincount(owners, weights=values, minlength=bad.size)
            first_bad = int(np.argmax(bad)) if bad.any() else bad.size
            keep = owners < first_bad
            breaks = np.concatenate((edges[:1], rights[keep]))
            # the bottom two binades continued geometrically leave
            # m0^2 / (m1 - m0) below 2^-1022, without bound when m1 <= m0
            m0, m1 = mass[0], mass[1]
            if m0 * m0 > _QUAD_TOL * mass[:1022].sum() * (m1 - m0):
                raise NonconvergenceError("mass below the smallest normal float is not negligible; diverges")
            tail = m0 * m0 / (m1 - m0) if m0 > 0 else 0.0
            prefix = np.cumsum(np.concatenate(([tail], values[keep])))
        return breaks, prefix, float(edges[first_bad])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t_arr)):
            raise DomainError("argument must be finite")
        return on_positive(self._integral, t_arr, _TINY_NORMAL)

    def _integral(self, tp: np.ndarray) -> np.ndarray:
        if self._mesh is None:
            self._mesh = self._build()
        breaks, prefix, limit = self._mesh
        if tp.max() > limit:
            raise NonconvergenceError("non-finite density value below the argument; integral diverges")
        i = np.searchsorted(breaks, tp, side="left")
        return prefix[i - 1] + gauss_panel(self._g, breaks[i - 1], tp)


def bisect_increasing(f: Callable, y, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Bisect brackets f(lo) <= y < f(hi) of a non-decreasing f, elementwise.

    Brackets must be positive. The midpoint is taken on the integer views
    of the floats, which are ordered like the floats: it cannot overflow,
    lies near the geometric midpoint, and halves the count of floats in the
    bracket. ceil(log2(n)) steps, fixed from the widest bracket of n floats,
    close every bracket to adjacent floats. The invariant holds throughout,
    so on a plateau of f the bracket closes on the right end of the level
    set. Returns the final (lo, hi).
    """
    y = np.asarray(y, dtype=float)
    # positive floats have the sign bit clear, so the sum of two views fits
    ilo = np.array(lo, dtype=float).view(np.uint64)
    ihi = np.array(hi, dtype=float).view(np.uint64)
    steps = (int(np.max(ihi - ilo)) - 1).bit_length()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(steps):
            imid = (ilo + ihi) >> 1
            below = np.asarray(f(imid.view(np.float64))) <= y
            ilo = np.where(below, imid, ilo)
            ihi = np.where(below, ihi, imid)
    return ilo.view(np.float64), ihi.view(np.float64)


def invert_increasing(f: Callable, y) -> np.ndarray | float:
    """Largest x with f(x) <= y, for an increasing f on [0, inf) with f(0) = 0.

    The bracket grows from 1 by a step that starts at 4 and is squared
    after every use (4, 16, 256, ...), clipped to the normal float range
    [tiny, max], and bisect_increasing closes it. y must be non-negative;
    y = 0 maps to 0 directly. A level that f does not reach inside the
    normal float range raises NonconvergenceError.
    """

    def invert(target: np.ndarray) -> np.ndarray:
        lo = np.ones_like(target)
        hi = np.ones_like(target)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = 4.0
            need = np.asarray(f(hi)) <= target
            while need.any():
                if np.any(hi[need] >= _MAX):
                    raise NonconvergenceError("level lies above f(max float)")
                lo[need] = hi[need]
                hi[need] = np.minimum(hi[need] * step, _MAX)
                step *= step
                need &= np.asarray(f(hi)) <= target
            step = 4.0
            need = np.asarray(f(lo)) > target
            while need.any():
                if np.any(lo[need] <= _TINY_NORMAL):
                    raise NonconvergenceError("level lies below f(smallest normal float)")
                hi[need] = lo[need]
                lo[need] = np.maximum(lo[need] / step, _TINY_NORMAL)
                step *= step
                need &= np.asarray(f(lo)) > target
        return bisect_increasing(f, target, lo, hi)[0]

    return on_positive(invert, y)


def _expm1_over(b: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """expm1(b ell) / b elementwise, and its limit ell where b = 0."""
    with np.errstate(over="ignore"):
        return np.divide(np.expm1(b * ell), b, out=np.array(ell, dtype=float), where=b != 0)


def _log1p_over(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log1p(b r) / b elementwise, and its limit r where b = 0; b r is held at -1 or above."""
    with np.errstate(divide="ignore"):
        return np.divide(np.log1p(np.maximum(b * r, -1.0)), b, out=np.array(r, dtype=float), where=b != 0)


class LogLogLinear:
    """Piecewise-linear interpolant of log y against log x.

    Exact on pure power laws. Outside the table the edge segments are
    continued with their own slopes, so piece k, from knot x_k (the first
    piece reaching down to 0 and the last up to inf), is the power law
    y_k (x/x_k)^a_k. Its integral has a closed form: with b = a_k + 1 and
    L = log(x/x_k), F(x) = F_k + x_k y_k expm1(b L)/b, which is
    x_k y_k L when b = 0, and below the first knot F(x) = F_0 (x/x_0)^b
    with F_0 = x_0 y_0 / b. integral evaluates it from prefix sums F_k
    over the knots, found by binary search, and integral_inverse solves
    it with L = log1p(b r)/b, r = (y - F_k)/(x_k y_k). No quadrature runs.
    The integral from 0 is finite only when lo_slope > -1, and it is
    bounded when hi_slope < -1. Samples other than two matching 1-d arrays
    of 2+ positive finite values, logs of x increasing, raise DomainError.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise DomainError("need two matching 1-d sample arrays of at least 2 samples")
        # written so that NaN fails too
        if not (np.all((x > 0) & (x < np.inf)) and np.all((y > 0) & (y < np.inf))):
            raise DomainError("log-log interpolation needs positive finite samples")
        self._lx, self._ly = np.log(x), np.log(y)
        # on the logs: abscissae a few ulps apart near the float limits share a log
        if np.any(np.diff(self._lx) <= 0):
            raise DomainError("sample abscissae must have strictly increasing logs")
        slopes = np.diff(self._ly) / np.diff(self._lx)
        self.lo_slope, self.hi_slope = slopes[0], slopes[-1]
        # the low edge line's limit at 0: +inf when it falls, its level when flat
        self._at_zero = np.inf if self.lo_slope < 0 else np.exp(self._ly[0]) if self.lo_slope == 0 else 0.0
        # per piece: exponent b, scale x_k y_k; per knot: the integral F_k from 0
        self._x = x
        self._b = slopes + 1.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self._scale = x[:-1] * y[:-1]
            self._cum = np.cumsum(
                np.concatenate(([self._scale[0] / self._b[0]], self._scale * _expm1_over(self._b, np.diff(self._lx))))
            )
            # the top piece, continued to inf, adds x_k y_k / -b when b < 0
            self._sup = self._cum[-2] - self._scale[-1] / self._b[-1] if self._b[-1] < 0 else np.inf

    def __call__(self, x):
        """The interpolant at x: its edge lines beyond the table, the low edge's limit at 0, 0 below."""
        x_arr = np.asarray(x, dtype=float)
        out = np.zeros(x_arr.shape)
        if self._at_zero:
            out[x_arr == 0.0] = self._at_zero
        pos = x_arr > 0.0
        if pos.any():
            lx = np.log(x_arr[pos])
            vals = np.interp(lx, self._lx, self._ly)
            # masked updates, not np.where: most calls have no point outside
            # the table, and np.where would evaluate both edge lines everywhere
            low = lx < self._lx[0]
            if low.any():
                vals[low] = self._ly[0] + self.lo_slope * (lx[low] - self._lx[0])
            high = lx > self._lx[-1]
            if high.any():
                vals[high] = self._ly[-1] + self.hi_slope * (lx[high] - self._lx[-1])
            out[pos] = np.exp(vals, out=vals)
        return float(out) if out.ndim == 0 else out

    def integral(self, x):
        """Integral of the interpolant over (0, x], 0 at x <= 0; needs lo_slope > -1.

        A non-finite argument raises DomainError.
        """
        x_arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x_arr)):
            raise DomainError("argument must be finite")
        return on_positive(self._integral, x_arr)

    def _integral(self, xp: np.ndarray) -> np.ndarray:
        lx = np.log(xp)
        k = np.clip(np.searchsorted(self._lx, lx, side="right") - 1, 0, self._b.size - 1)
        ell = lx - self._lx[k]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self._cum[k] + self._scale[k] * _expm1_over(self._b[k], ell)
            low = ell < 0.0
            if low.any():
                vals[low] = self._cum[0] * np.exp(self._b[0] * ell[low])
        return vals

    def integral_inverse(self, y):
        """The x >= 0 with integral(x) = y, for y >= 0.

        The integral is bounded when hi_slope < -1: a level above its
        supremum raises NonconvergenceError, and the supremum itself maps
        to inf, as does a root past the float range. NaN raises DomainError.
        """
        y_arr = np.asarray(y, dtype=float)
        if np.any(np.isnan(y_arr)):
            raise DomainError("level must not be NaN")
        if np.any(y_arr > self._sup):
            raise NonconvergenceError("level lies above the supremum of the integral")
        return on_positive(self._integral_inverse, y_arr)

    def _integral_inverse(self, yp: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(self._cum, yp, side="right") - 1, 0, self._b.size - 1)
        with np.errstate(over="ignore"):
            ell = _log1p_over(self._b[k], (yp - self._cum[k]) / self._scale[k])
            low = yp < self._cum[0]
            if low.any():
                ell[low] = (np.log(yp[low]) - np.log(self._cum[0])) / self._b[0]
            return self._x[k] * np.exp(ell)
