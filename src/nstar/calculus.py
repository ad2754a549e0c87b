"""Concave generators and their calculus.

A concave generator Phi is an even, continuous, concave function with
Phi(0) = 0 whose slope density p is positive, decreasing, unbounded at 0
and vanishing at infinity; equivalently Phi(x) is the integral of p over
(0, |x|]. Its inverse on the non-negative axis is a convex Young-type
function, and conjugating that inverse and inverting back produces the
complementary generator. Young's equality puts that composite in closed
parametric form, hat(phi(x)/p(x) - x) = 1/p(x), so complementary
evaluates it with one monotone inversion and builds no table of the
conjugate. One type, NStarFunction, models every generator: an
increasing function on [0, inf) given by its slope density, with
optional closed forms for its value and inverse. This module implements
construction, evaluation, inversion, complementation, doubling
certificates and validation for these objects. All values are immutable
after construction and every operation is deterministic, so concurrent
use needs no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonconvergenceError, NStarError
from .numerics import CumulativeIntegral, bisect_increasing, invert_increasing, on_positive

__all__ = [
    "NStarFunction",
    "Delta2Certificate",
    "ValidationCheck",
    "ValidationReport",
    "complementary",
    "delta2_solve",
    "growth_factor",
    "validate_nstar",
    "VALIDATE_GRID",
]


@dataclass(frozen=True)
class NStarFunction:
    """An increasing function on [0, inf), given by its slope density.

    A concave generator has a positive, decreasing density, unbounded at 0
    and vanishing at infinity. Evaluation is even in the argument. eval_fn
    and inverse_fn, when given, evaluate and invert on the non-negative
    axis: closed forms for every registered family, one monotone inversion
    each on a numeric complement. Without eval_fn (only from_density) the
    value integrates the density through a CumulativeIntegral, created at
    construction and meshed over the whole float range on its first call
    (so a replaced density needs eval_fn=None again); without inverse_fn
    inversion runs a bracketed bisection.
    registered_complementary returns the complement without numeric work:
    the closed complement of a family, or, on a numeric complement, the
    generator it was computed from.
    source_nfunction records that generator on a numeric complement and
    is None everywhere else. The density contracts are not constructor
    checks; validate_nstar probes them on sample grids. eval_fn and
    inverse_fn return a float for a 0-d argument and a float64 array of
    its shape otherwise, so __call__ and inverse do, and callers use their
    results as they are; density may return any array-like.
    degree, when given, claims that eval_fn is homogeneous of that degree,
    phi(t x) = t^degree phi(x) for all t, x > 0, as the power families
    are; luxemburg_norm then starts at the quasi-norm's closed-form root.
    Like eval_fn it is not checked, and it belongs to eval_fn: replace
    both together. A false claim costs modular passes, not correctness.
    """

    density: Callable
    eval_fn: Callable | None = None
    inverse_fn: Callable | None = None
    description: str = ""
    registered_complementary: Callable[[], "NStarFunction"] | None = None
    source_nfunction: "NStarFunction | None" = None
    degree: float | None = None

    def __post_init__(self):
        if self.eval_fn is None:
            object.__setattr__(self, "eval_fn", CumulativeIntegral(self.density))

    def __call__(self, x):
        return self.eval_fn(np.abs(np.asarray(x, dtype=float)))

    def inverse(self, y):
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr < 0):
            raise DomainError("generator inverse is defined for y >= 0 only")
        if self.inverse_fn is not None:
            # a level past the range of the float inverse gives inf
            with np.errstate(over="ignore"):
                return self.inverse_fn(y_arr)
        return invert_increasing(self.__call__, y_arr)


@dataclass(frozen=True)
class Delta2Certificate:
    """Per-point solutions k(x) of 2*phi(x) = phi(k(x) x) under a doubling bound.

    k0 certifies the hypothesis 2*phi(x) <= phi(k0 x) on the grid. When the
    sampled k(x) agree to within _K_SPREAD_TOL (1e-8, relative) the
    certificate carries a single global constant, otherwise only the
    per-point family.
    """

    k0: float
    ks: np.ndarray
    status: str  # "exact_global" | "per_x_only"
    k_global: float | None
    k_min: float
    k_max: float
    residual_max: float

    @property
    def bound_constant(self) -> float:
        """Constant usable in quasi-norm estimates: global k when exact, else k0."""
        if self.status == "exact_global" and self.k_global is not None:
            return self.k_global
        return self.k0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


_PROBE_GRID = np.geomspace(1e-8, 1e8, 33)


def complementary(phi: NStarFunction, *, use_registered: bool = True) -> NStarFunction:
    """Complementary generator ((phi^-1)*)^-1, from Young's equality in closed parametric form.

    Let p be the density of phi and M = phi^-1 its convex inverse, whose
    slope at s = phi(x) is M'(s) = 1/p(x). Young's equality at that slope
    gives the conjugate M*(1/p(x)) = s/p(x) - M(s) = phi(x)/p(x) - x =: G(x),
    and (M*)' inverts M', so (M*)'(1/p(x)) = phi(x). The complement is the
    inverse of M*, so with x as parameter

        hat(G(x)) = 1/p(x),   hat^-1(1/p(x)) = G(x),   hat'(G(x)) = 1/phi(x).

    G increases from G(0) = 0 (G' = -phi p'/p^2 >= 0), so hat(a) and
    hat'(a) invert G at a, and hat^-1(y) inverts 1/p at y, each by one
    invert_increasing; G evaluates phi through its __call__. hat and hat^-1
    are pinned to 0 at 0, where p is never read: a finite p(0) would give 1/p(0).
    Such a hat jumps from 0 to 1/p(0) at 0, and hat^-1 raises
    NonconvergenceError for the levels in between, which hat never takes.
    The same algebra applied to hat returns x = G_hat(G(x)) and
    hat_hat(x) = phi(x), so the complement of hat is phi itself, recorded
    as registered_complementary; source_nfunction records phi as well.
    A density that is negative or increasing on _PROBE_GRID raises
    DomainError. Registered closed complements are returned unless
    use_registered is False.
    """
    if use_registered and phi.registered_complementary is not None:
        return phi.registered_complementary()
    with np.errstate(all="ignore"):
        probe = np.asarray(phi.density(_PROBE_GRID), dtype=float)
    probe = probe[np.isfinite(probe)]
    if np.any(probe < 0) or np.any(np.diff(probe) > 1e-9 * probe[:-1] + 1e-300):
        raise DomainError("complementation requires a non-negative, non-increasing density")

    def reciprocal_density(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(phi.density(x), dtype=float)

    def young_gap(x):
        # G(x) = phi(x)/p(x) - x, the conjugate of phi^-1 at slope 1/p(x)
        with np.errstate(invalid="ignore", over="ignore"):
            return phi(x) * reciprocal_density(x) - x

    def hat_density(a):
        # np.divide: phi may return a Python float, and 1.0 / 0.0 raises
        with np.errstate(divide="ignore"):
            return np.divide(1.0, phi(invert_increasing(young_gap, np.abs(a))))

    return NStarFunction(
        density=hat_density,
        # hat(0) = hat^-1(0) = 0, so the density of phi is read only above 0
        eval_fn=lambda a: on_positive(lambda ap: reciprocal_density(invert_increasing(young_gap, ap)), a),
        inverse_fn=lambda y: on_positive(lambda yp: young_gap(invert_increasing(reciprocal_density, yp)), y),
        description=f"complementary({phi.description})" if phi.description else "complementary",
        registered_complementary=lambda: phi,
        source_nfunction=phi,
    )


def _sample_grid(grid, min_points: int) -> np.ndarray:
    """grid as floats; DomainError unless 1-d, finite, strictly positive, of min_points or more."""
    xs = np.asarray(grid, dtype=float)
    # written so that NaN fails too
    if xs.ndim != 1 or xs.size < min_points or not np.all((xs > 0) & (xs < np.inf)):
        raise DomainError(f"sample grid must be 1-d, finite, strictly positive, of {min_points}+ points")
    return xs


_K_SPREAD_TOL = 1e-8
_K_RESIDUAL_TOL = 1e-10


def delta2_solve(phi: NStarFunction, k0: float, grid) -> Delta2Certificate:
    """Solve 2*phi(x) = phi(k x) for k in [2, k0] at every grid point.

    Preconditions checked on the grid: k0 > 2 and k0 x inside the float
    range (DomainError otherwise), 2*phi(x) <= phi(k0 x) (the doubling
    hypothesis), plus phi(2x) <= 2*phi(x) which any concave generator
    satisfies. Both sign conditions bracket a root, so bisection
    cannot fail; a relative residual above 1e-10 raises
    NonconvergenceError. A global constant is reported only when the
    per-point solutions agree to 1e-8 in relative terms.
    """
    if not k0 > 2:
        raise DomainError("doubling constant k0 must exceed 2")
    xs = _sample_grid(grid, 1)
    # k0 x > 2 x, so this also catches 2 x past the float range
    with np.errstate(over="ignore"):
        scaled = k0 * xs
    if not np.all(np.isfinite(scaled)):
        worst = xs[np.argmin(np.isfinite(scaled))]
        raise DomainError(f"k0*x overflows the float range at x={worst:.6g} for k0={k0:g}")
    # 2 phi(x) can still overflow near the top of the float range
    with np.errstate(over="ignore"):
        twice = 2.0 * phi(xs)
        top = phi(scaled)
        bottom = phi(2.0 * xs)
    if np.any(top < twice * (1 - 1e-12)):
        worst = xs[np.argmin(top - twice)]
        raise NonconvergenceError(
            f"doubling hypothesis 2*phi(x) <= phi(k0*x) fails at x={worst:.6g} for k0={k0:g}"
        )
    if np.any(bottom > twice * (1 + 1e-12)):
        worst = xs[np.argmax(bottom - twice)]
        raise NonconvergenceError(
            f"phi(2x) <= 2*phi(x) fails at x={worst:.6g}; not a concave generator"
        )
    lo, hi = bisect_increasing(
        lambda k: phi(k * xs), twice, np.full(xs.shape, 2.0), np.full(xs.shape, float(k0))
    )
    ks = 0.5 * lo + 0.5 * hi
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(phi(ks * xs) - twice)
    residual_max = float(np.max(resid / np.maximum(twice, 1e-300)))
    if residual_max > _K_RESIDUAL_TOL:
        raise NonconvergenceError(
            f"doubling bisection residual {residual_max:.3e} exceeds tolerance {_K_RESIDUAL_TOL:.3e}"
        )
    k_min = float(ks.min())
    k_max = float(ks.max())
    spread = (k_max - k_min) / max(abs(k_max), 1e-300)
    if spread < _K_SPREAD_TOL:
        status = "exact_global"
        # the middle of the sorted ks, as np.median gives it, without the
        # numpy.ma import that np.median makes on its first call
        ordered = np.sort(ks)
        mid = ordered.size // 2
        k_global = float(ordered[mid] if ordered.size % 2 else (ordered[mid - 1] + ordered[mid]) / 2)
    else:
        status = "per_x_only"
        k_global = None
    return Delta2Certificate(
        k0=float(k0),
        ks=ks,
        status=status,
        k_global=k_global,
        k_min=k_min,
        k_max=k_max,
        residual_max=residual_max,
    )


_GROWTH_GRID = np.geomspace(1e-6, 1e6, 241)


def growth_factor(phi: NStarFunction) -> float:
    """Largest ratio phi(2x)/phi(x) over 1e-6..1e6; at most 2 for a valid generator."""
    xs = _GROWTH_GRID
    vals = phi(xs)
    doubled = phi(2.0 * xs)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(vals > 0, doubled / vals, 1.0)
    return float(np.max(ratios))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    residual: float
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ValidationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"{mark}  {c.name:36s} residual={c.residual:.3e} {c.note}")
        return "\n".join(lines)


VALIDATE_GRID = np.geomspace(1e-300, 1e300, 1201)

_VALIDATE_TOL = 1e-7
_TREND_FACTOR = 10.0
_PAIRS_PER_DECADE = 12.5


def _limit_checks(prefix: str, series: np.ndarray, rising: bool, low: float | None = None) -> list[ValidationCheck]:
    """Tenfold end checks against the middle sample: a falling series must pass ten times it at
    its first sample (or low) and a tenth of it at its last, a rising one the reverse."""
    ref = max(float(series[series.size // 2]), 1e-300)
    first = float(series[0]) if low is None else low
    names = ("vanishes_at_zero", "unbounded_at_infinity") if rising else ("unbounded_at_zero", "vanishes_at_infinity")
    checks = []
    for name, edge, up in zip(names, (first, float(series[-1])), (not rising, rising)):
        ratio = edge / ref
        margin = ratio - _TREND_FACTOR if up else 1.0 / max(ratio, 1e-300) - _TREND_FACTOR
        note = f"edge/ref ratio {ratio:.3e}"
        checks.append(ValidationCheck(f"{prefix}_{name}", bool(margin >= 0.0), float(margin), note))
    return checks


def validate_nstar(phi: NStarFunction, grid=None, *, seed: int = 0) -> ValidationReport:
    """Probe every structural property of a candidate generator.

    Failures are report entries, never exceptions; a grid that is not 1-d,
    finite, strictly positive and of 2+ points raises DomainError. Beyond
    the direct properties (evenness, monotonicity, concavity, subadditivity,
    superhomogeneity, ratio limits, density shape), phi.inverse at the
    distinct finite positive values of phi on the grid must round-trip and
    behave like a convex Young function, the cross-characterization of
    validity; under 8 such levels, or an inverse that raises, fail
    inverse_midpoint_convex. Residuals to 1e-7, tenfold limits from the
    grid's middle to its edges, and seeded random pairs, 12.5 per decade
    (200 on 1e-8..1e8). The default grid, VALIDATE_GRID, spans 1e-300..1e300
    at 2 points per decade, wide enough for slow limits such as hat(y)/y ~
    1/sqrt(log y) of the log_sqrt complement.
    """
    xs = _sample_grid(VALIDATE_GRID if grid is None else grid, 2)
    lo, hi = float(xs.min()), float(xs.max())
    pairs = max(1, int(round(_PAIRS_PER_DECADE * (np.log10(hi) - np.log10(lo)))))
    rng = np.random.default_rng(seed)
    checks: list[ValidationCheck] = []

    with np.errstate(all="ignore"):
        vals = phi(xs)
        scale = float(np.max(np.abs(vals))) + 1.0

        v0 = float(phi(0.0))
        checks.append(ValidationCheck("phi_zero_at_zero", abs(v0) <= _VALIDATE_TOL, abs(v0)))

        even_res = float(np.max(np.abs(phi(-xs) - vals)))
        checks.append(ValidationCheck("phi_even", even_res <= _VALIDATE_TOL * scale, even_res))

        mono = float(np.min(np.diff(vals)))
        checks.append(ValidationCheck("phi_nondecreasing", mono >= -_VALIDATE_TOL * scale, mono))

        x1 = np.exp(rng.uniform(np.log(lo), np.log(hi), pairs))
        x2 = np.exp(rng.uniform(np.log(lo), np.log(hi), pairs))
        p1 = phi(x1)
        p2 = phi(x2)
        pair_scale = np.maximum(p1 + p2, 1e-300)
        # x1 + x2 overflows on a grid reaching the top binade; the capped sum
        # lowers phi(x1 + x2), so it can hide a subadditivity failure, never invent one
        mid = 0.5 * x1 + 0.5 * x2
        pair_sum = np.minimum(x1 + x2, np.finfo(float).max)

        conc = (phi(mid) - 0.5 * (p1 + p2)) / pair_scale
        worst = float(np.min(conc))
        checks.append(ValidationCheck("phi_midpoint_concave", worst >= -_VALIDATE_TOL, worst))

        sub = (p1 + p2 - phi(pair_sum)) / pair_scale
        worst = float(np.min(sub))
        checks.append(ValidationCheck("phi_subadditive", worst >= -_VALIDATE_TOL, worst))

        alphas = rng.uniform(0.0, 1.0, pairs)
        sup = (phi(alphas * x1) - alphas * p1) / np.maximum(p1, 1e-300)
        worst = float(np.min(sup))
        checks.append(ValidationCheck("phi_superhomogeneous", worst >= -_VALIDATE_TOL, worst))

        checks += _limit_checks("phi_ratio", vals / xs, rising=False)

        dens = np.asarray(phi.density(xs), dtype=float)
        finite = np.isfinite(dens)
        dpos = float(np.min(dens[finite])) if finite.any() else float("nan")
        checks.append(ValidationCheck("density_positive", bool(finite.any() and dpos > 0), dpos))
        dv = dens[finite]
        dmono = float(np.max(np.diff(dv) / np.maximum(dv[:-1], 1e-300))) if dv.size > 1 else 0.0
        checks.append(ValidationCheck("density_nonincreasing", dmono <= _VALIDATE_TOL, dmono))
        if dv.size == 0:
            for name in ("density_unbounded_at_zero", "density_vanishes_at_infinity"):
                checks.append(ValidationCheck(name, False, float("nan"), "no finite density sample"))
        else:
            low = float(dens[0]) if finite[0] else float(np.max(dv)) * _TREND_FACTOR * 2
            checks += _limit_checks("density", dv, rising=False, low=low)

        # cross-characterization: the generator's own inverse must be a convex Young function
        ys = np.unique(vals[(vals > 0) & np.isfinite(vals)])
        try:
            if ys.size < 8:
                raise NonconvergenceError("generator not invertible on grid")
            inv = phi.inverse(ys)
            y1 = np.exp(rng.uniform(np.log(ys[0]), np.log(ys[-1]), pairs))
            y2 = np.exp(rng.uniform(np.log(ys[0]), np.log(ys[-1]), pairs))
            m1, m2, mmid = (phi.inverse(y) for y in (y1, y2, 0.5 * (y1 + y2)))
            # the largest float stands in for a root past the float range,
            # as at the supremum of a bounded generator
            back = phi(np.minimum(inv, np.finfo(float).max))
        except NStarError as exc:  # e.g. a diverging integral, or an integrated phi at a NaN root
            checks.append(ValidationCheck("inverse_midpoint_convex", False, float("nan"), str(exc)))
            return ValidationReport(tuple(checks))
        conv = (0.5 * (m1 + m2) - mmid) / np.maximum(m1 + m2, 1e-300)
        worst = float(np.min(conv))
        checks.append(ValidationCheck("inverse_midpoint_convex", worst >= -_VALIDATE_TOL, worst))
        checks += _limit_checks("inverse_ratio", inv / ys, rising=True)
        trip = float(np.max(np.abs(back - ys) / ys))
        checks.append(ValidationCheck("inverse_round_trip", trip <= _VALIDATE_TOL, trip))

    return ValidationReport(tuple(checks))
