"""Monotone root finding, cumulative quadrature and log-log interpolants on (0, inf).

Everything here is deterministic and vectorized over numpy arrays. The
integrator targets positive densities with an integrable singularity at the
origin: panels are graded geometrically toward 0 and the mass below the
smallest breakpoint is estimated from the decay ratio of the final panels.
A density whose panel sums fail to decay is reported as divergent.

The mesh is built one refinement level per density call: every panel still
waiting for verification, across all segments being added, is evaluated in
one batch (whole panel and both halves), so a build costs a few dozen calls
instead of one call per panel. Grading toward 0 verifies segments in
speculative chunks and replays the stopping rule segment by segment, which
yields the same mesh a segment-at-a-time build would. A non-finite panel
value raises DivergedIntegralError instead of being split (only once the
replay reaches its segment), and a non-finite argument raises DomainError.

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
such a form (generators from families.from_density). Its settings are
fixed: relative tolerance 1e-8, grading ratio 0.5 and at most 4000
geometric segments in each direction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DivergedIntegralError, DomainError, NonconvergenceError

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)

_TINY = 1e-290

_TINY_NORMAL = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)

# CumulativeIntegral: relative tolerance on cumulative integrals, geometric
# grading factor toward the origin (in (0, 1)), and the cap on geometric
# segments added in one direction
_QUAD_TOL = 1e-8
_MESH_RATIO = 0.5
_MAX_PANELS = 4000


def gauss_panel(g: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """15-point Gauss-Legendre integral of g over each interval [a_i, b_i]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[..., None] + half[..., None] * _GL_X
    vals = g(nodes)
    return np.asarray(vals).dot(_GL_W) * half


class CumulativeIntegral:
    """F(t) = integral of g over (0, t], cached across calls.

    The mesh is a sorted array of breakpoints, the verified integral of each
    panel between them, their prefix sums and a stub estimate of the mass
    below the lowest breakpoint. A panel is verified by comparing one
    15-point Gauss rule with its two-half refinement and split until they
    agree, at most 22 times. Verification is level-batched: the pending
    panels of one refinement level, across every segment being added, go
    to the density in a single call. Upward extension verifies all of its
    geometric segments in one batch; downward grading verifies speculative
    chunks of segments (4, doubling to 64), replays the stopping rule one
    segment at a time and drops the segments past the stop, so the mesh is
    the one a segment-at-a-time build produces. A non-finite panel value
    raises DivergedIntegralError when the replay reaches its segment, and a
    non-finite argument raises DomainError. The mesh extends lazily in both
    directions as new arguments arrive; readers always see a consistent
    snapshot because new arrays are built and swapped in wholesale.
    """

    def __init__(self, g: Callable):
        self._g = g
        # (breaks, panels, prefix, stub); swapped as one reference so
        # concurrent readers never see a half-updated mesh
        self._mesh: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None = None

    # -- panel construction -------------------------------------------------

    def _verify(self, a: np.ndarray, b: np.ndarray):
        """Integrate each segment [a_i, b_i], one refinement level per density call.

        A panel is accepted when its Gauss value agrees with the sum of its
        halves, or at depth 22, and contributes both halves as leaves.
        Returns the leaves sorted by left endpoint (right endpoints, values,
        owning segment) and a per-segment flag for a non-finite panel value;
        a flagged segment is not refined further. Floating-point warnings
        are silenced here because a non-finite value is reported by the flag.
        """
        owner = np.arange(a.size)
        bad = np.zeros(a.size, dtype=bool)
        rtol = 0.1 * _QUAD_TOL
        lefts, rights, values, owners = [], [], [], []
        with np.errstate(all="ignore"):
            for depth in range(23):
                if a.size == 0:
                    break
                n = a.size
                mid = 0.5 * (a + b)
                vals = gauss_panel(self._g, np.concatenate((a, a, mid)), np.concatenate((b, mid, b)))
                whole, left, right = vals[:n], vals[n : 2 * n], vals[2 * n :]
                refined = left + right
                finite = np.isfinite(whole) & np.isfinite(refined)
                bad[owner[~finite]] = True
                agree = np.abs(whole - refined) <= rtol * (np.abs(refined) + 1e-300)
                accept = finite & (agree | (depth >= 22))
                lefts += [a[accept], mid[accept]]
                rights += [mid[accept], b[accept]]
                values += [left[accept], right[accept]]
                owners += [owner[accept], owner[accept]]
                split = ~accept & ~bad[owner]
                a, b = np.concatenate((a[split], mid[split])), np.concatenate((mid[split], b[split]))
                owner = np.concatenate((owner[split], owner[split]))
        order = np.argsort(np.concatenate(lefts), kind="stable")
        return (
            np.concatenate(rights)[order],
            np.concatenate(values)[order],
            np.concatenate(owners)[order],
            bad,
        )

    def _set_mesh(self, breaks: np.ndarray, panels: np.ndarray, stub: float) -> None:
        prefix = np.empty(breaks.size)
        prefix[0] = stub
        np.cumsum(panels, out=prefix[1:])
        prefix[1:] += stub
        self._mesh = (breaks, panels, prefix, stub)

    def _grade_down(self, breaks: np.ndarray, panels: np.ndarray, t_floor: float):
        """Prepend geometric panels toward 0 until the tail below is negligible.

        Returns the extended (breaks, panels) and the stub estimate for the
        mass below the new smallest breakpoint. Raises DivergedIntegralError
        when the panel sums do not decay (the integral cannot be finite then).
        """
        r = _MESH_RATIO
        tol = _QUAD_TOL
        lo = float(breaks[0])
        total = float(panels.sum())
        # mass of the panels ending at or below t_floor; t_floor lies under
        # the existing mesh, so only new panels count
        below = 0.0
        prev = None
        stalled = 0
        new_breaks: list[np.ndarray] = []
        new_panels: list[np.ndarray] = []
        k = 0
        chunk = 4
        while k < _MAX_PANELS:
            # speculative chunk of segments, ending at the first one under _TINY
            n = min(chunk, _MAX_PANELS - k)
            edges = [lo, lo * r]
            while len(edges) <= n and edges[-1] >= _TINY:
                edges.append(edges[-1] * r)
            tops = np.array(edges[:-1])
            bottoms = np.array(edges[1:])
            leaf_breaks, leaf_vals, owner, bad = self._verify(bottoms, tops)
            seg_sums = np.bincount(owner, weights=leaf_vals, minlength=tops.size)
            seg_below = np.bincount(
                owner, weights=np.where(leaf_breaks <= t_floor, leaf_vals, 0.0), minlength=tops.size
            )
            for j in range(tops.size):
                if bad[j]:
                    raise DivergedIntegralError("non-finite panel value near 0; integral diverges")
                seg = float(seg_sums[j])
                lo = float(bottoms[j])
                total += seg
                below += float(seg_below[j])
                stub = None
                if prev is not None and prev > 0:
                    q = seg / prev
                    if q >= 0.9995:
                        stalled += 1
                        if stalled >= 48:
                            raise DivergedIntegralError(
                                "panel sums near 0 are not decaying; integral diverges"
                            )
                    else:
                        stalled = 0
                    if q < 1.0:
                        tail = seg * q / (1.0 - q)
                        local = max(tail + below, tol * total)
                        if k >= 3 and seg + tail <= tol * local and lo <= t_floor:
                            stub = tail
                if stub is None and lo < _TINY:
                    if seg > tol * max(total, 1e-300):
                        raise DivergedIntegralError(
                            "mesh grading reached the underflow floor without converging"
                        )
                    stub = seg
                if stub is not None:
                    keep = owner <= j
                    new_breaks.append(leaf_breaks[keep])
                    new_panels.append(leaf_vals[keep])
                    return (
                        np.concatenate([[lo], *new_breaks[::-1], breaks[1:]]),
                        np.concatenate([*new_panels[::-1], panels]),
                        stub,
                    )
                prev = seg
                k += 1
            new_breaks.append(leaf_breaks)
            new_panels.append(leaf_vals)
            chunk = min(2 * chunk, 64)
        raise DivergedIntegralError("panel budget exhausted while grading toward 0")

    def _extend_up(self, t_hi: float) -> None:
        br, pa, _, stub = self._mesh
        growth = 1.0 / _MESH_RATIO
        edges = [float(br[-1])]
        for _ in range(_MAX_PANELS):
            if edges[-1] >= t_hi:
                break
            edges.append(edges[-1] * growth)
        else:
            raise DivergedIntegralError("panel budget exhausted while extending upward")
        edges = np.array(edges)
        leaf_breaks, leaf_vals, _, bad = self._verify(edges[:-1], edges[1:])
        if bad.any():
            raise DivergedIntegralError("non-finite panel value; integral diverges")
        self._set_mesh(np.concatenate((br, leaf_breaks)), np.concatenate((pa, leaf_vals)), stub)

    def _ensure(self, t_hi: float, t_lo: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        if self._mesh is None:
            top = max(t_hi, t_lo)
            self._set_mesh(*self._grade_down(np.array([top]), np.empty(0), min(t_lo, top)))
        if t_hi > self._mesh[0][-1]:
            self._extend_up(t_hi)
        if 0.0 < t_lo < self._mesh[0][0]:
            br, pa, _, _ = self._mesh
            self._set_mesh(*self._grade_down(br, pa, t_lo))
        return self._mesh

    # -- evaluation -----------------------------------------------------------

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t_arr)):
            raise DomainError("argument must be finite")
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr).copy()
        out = np.zeros_like(t_arr)
        pos = t_arr > 0.0
        if pos.any():
            tp = t_arr[pos]
            breaks, _, prefix, stub = self._ensure(float(tp.max()), float(max(tp.min(), _TINY)))
            idx = np.searchsorted(breaks, tp, side="left")
            vals = np.empty_like(tp)
            below = idx == 0
            if below.any():
                # under the mesh floor: scale the stub linearly (sub-tolerance mass)
                vals[below] = stub * tp[below] / breaks[0]
            inside = ~below
            if inside.any():
                i = idx[inside]
                a = breaks[i - 1]
                vals[inside] = prefix[i - 1] + gauss_panel(self._g, a, tp[inside])
            out[pos] = vals
        return float(out[0]) if scalar else out


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
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    out = np.zeros_like(y_arr)
    pos = y_arr > 0.0
    if pos.any():
        target = y_arr[pos]
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
        out[pos], _ = bisect_increasing(f, target, lo, hi)
    return float(out[0]) if scalar else out


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
    bounded when hi_slope < -1.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("need two matching 1-d sample arrays of at least 2 samples")
        # written so that NaN fails too
        if not (np.all((x > 0) & (x < np.inf)) and np.all((y > 0) & (y < np.inf))):
            raise ValueError("log-log interpolation needs positive finite samples")
        self._lx, self._ly = np.log(x), np.log(y)
        # on the logs: abscissae a few ulps apart near the float limits share a log
        if np.any(np.diff(self._lx) <= 0):
            raise ValueError("sample abscissae must have strictly increasing logs")
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
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        out = np.zeros_like(x_arr)
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
        return float(out[0]) if scalar else out

    def integral(self, x):
        """Integral of the interpolant over (0, x], 0 at x <= 0; needs lo_slope > -1.

        A non-finite argument raises DomainError.
        """
        x_arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x_arr)):
            raise DomainError("argument must be finite")
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        out = np.zeros_like(x_arr)
        pos = x_arr > 0.0
        if pos.any():
            lx = np.log(x_arr[pos])
            k = np.clip(np.searchsorted(self._lx, lx, side="right") - 1, 0, self._b.size - 1)
            ell = lx - self._lx[k]
            with np.errstate(over="ignore", invalid="ignore"):
                vals = self._cum[k] + self._scale[k] * _expm1_over(self._b[k], ell)
                low = ell < 0.0
                if low.any():
                    vals[low] = self._cum[0] * np.exp(self._b[0] * ell[low])
            out[pos] = vals
        return float(out[0]) if scalar else out

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
        scalar = y_arr.ndim == 0
        y_arr = np.atleast_1d(y_arr)
        out = np.zeros_like(y_arr)
        pos = y_arr > 0.0
        if pos.any():
            yp = y_arr[pos]
            k = np.clip(np.searchsorted(self._cum, yp, side="right") - 1, 0, self._b.size - 1)
            with np.errstate(over="ignore"):
                ell = _log1p_over(self._b[k], (yp - self._cum[k]) / self._scale[k])
                low = yp < self._cum[0]
                if low.any():
                    ell[low] = (np.log(yp[low]) - np.log(self._cum[0])) / self._b[0]
                out[pos] = self._x[k] * np.exp(ell)
        return float(out[0]) if scalar else out
