"""Concave generators and their calculus.

A concave generator Phi is an even, continuous, concave function with
Phi(0) = 0 whose slope density p is positive, decreasing, unbounded at 0
and vanishing at infinity; equivalently Phi(x) is the integral of p over
(0, |x|]. Its inverse on the non-negative axis is a convex Young-type
function, and conjugating that inverse and inverting back produces the
complementary generator. One type, NStarFunction, models the functions
on both sides: an increasing function on [0, inf) given by its slope
density, with optional closed forms for its value and inverse. This
module implements construction, evaluation, inversion, conjugation,
doubling certificates and validation for these objects. All values are
immutable after construction and every operation is deterministic, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidDensityError, NonconvergenceError, NotDelta2Error
from .numerics import (
    DEFAULT_QUAD,
    CumulativeIntegral,
    QuadConfig,
    bisect_increasing,
    generalized_inverse,
    invert_increasing,
    tabulate_density,
)

__all__ = [
    "NStarFunction",
    "Delta2Certificate",
    "ValidationCheck",
    "ValidationReport",
    "invert",
    "conjugate_nfunction",
    "complementary",
    "delta2_solve",
    "growth_factor",
    "validate_nstar",
]


@dataclass(frozen=True)
class NStarFunction:
    """An increasing function on [0, inf), given by its slope density.

    Both sides of the calculus are this type: a concave generator, whose
    density is positive, decreasing, unbounded at 0 and vanishing at
    infinity, and the convex Young function of its inverse, whose density
    is non-decreasing. Evaluation is even in the argument. eval_fn and
    inverse_fn, when given, are closed forms on the non-negative axis.
    Without eval_fn the value integrates the density through a cumulative
    quadrature, built once at construction (so a replaced density or quad
    needs eval_fn=None again); without inverse_fn inversion runs a
    bracketed bisection. registered_complementary returns the closed
    complement of a generator or the Young conjugate of a convex function,
    which Orlicz theory calls its complementary function. source_nfunction
    records the convex conjugate a numeric complement was inverted from,
    which keeps chained conjugations exact. The density contracts are not
    constructor checks; validate_nstar probes them on sample grids.
    """

    density: Callable
    eval_fn: Callable | None = None
    inverse_fn: Callable | None = None
    description: str = ""
    quad: QuadConfig = DEFAULT_QUAD
    registered_complementary: Callable[[], "NStarFunction"] | None = None
    delta2: "Delta2Certificate | None" = None
    source_nfunction: "NStarFunction | None" = None

    def __post_init__(self):
        if self.eval_fn is None:
            object.__setattr__(self, "eval_fn", CumulativeIntegral(self.density, self.quad))

    def __call__(self, x):
        return self.eval_fn(np.abs(np.asarray(x, dtype=float)))

    def inverse(self, y):
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr < 0):
            raise DomainError("generator inverse is defined for y >= 0 only")
        if self.inverse_fn is not None:
            return self.inverse_fn(y_arr)
        return invert_increasing(self.__call__, y_arr)

    def with_delta2(self, certificate: "Delta2Certificate") -> "NStarFunction":
        return dataclasses.replace(self, delta2=certificate)


@dataclass(frozen=True)
class Delta2Certificate:
    """Per-point solutions k(x) of 2*phi(x) = phi(k(x) x) under a doubling bound.

    k0 certifies the hypothesis 2*phi(x) <= phi(k0 x) on the grid. When the
    sampled k(x) agree to within spread_tol the certificate carries a single
    global constant, otherwise only the per-point family.
    """

    k0: float
    xs: np.ndarray
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


def invert(phi: NStarFunction, y):
    """Solve phi(x) = y for x >= 0.

    Uses the registered closed-form inverse when available, otherwise
    bracket expansion plus bisection on the increasing restriction of phi.
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0):
        raise DomainError("generator inverse is defined for y >= 0 only")
    return phi.inverse(y_arr)


_PROBE_GRID = np.geomspace(1e-8, 1e8, 33)


def conjugate_nfunction(
    m: NStarFunction,
    quad: QuadConfig | None = None,
    *,
    use_registered: bool = True,
) -> NStarFunction:
    """Conjugate convex function: integral of the generalized inverse density.

    The conjugate density at level t is sup{s : m'(s) <= t}, computed by a
    predicate bisection that lands on the right endpoint of level sets
    (jump discontinuities resolve to the supremum). Registered closed-form
    conjugates short-circuit the numeric pipeline unless disabled.
    """
    if use_registered and m.registered_complementary is not None:
        return m.registered_complementary()
    quad = quad or m.quad
    with np.errstate(all="ignore"):
        probe = np.asarray(m.density(_PROBE_GRID), dtype=float)
    finite = np.isfinite(probe)
    if np.any(probe[finite] < 0) or np.any(np.diff(probe[finite]) < -1e-9 * np.abs(probe[finite][:-1]) - 1e-300):
        raise InvalidDensityError("conjugation requires a non-negative, non-decreasing density")

    mbar = tabulate_density(
        lambda t: generalized_inverse(m.density, t),
        lo=quad.table_lo,
        hi=quad.table_hi,
        points=quad.table_points,
    )
    return NStarFunction(
        density=mbar,
        description=f"conjugate({m.description})" if m.description else "conjugate",
        quad=quad,
    )


def inverse_as_nfunction(phi: NStarFunction) -> NStarFunction:
    """The inverse of a concave generator, packaged as a convex function.

    Its density is 1/p(phi^{-1}(s)) wherever the generator density p is
    finite and positive.
    """
    if phi.source_nfunction is not None:
        return phi.source_nfunction

    def density(s):
        s_arr = np.asarray(s, dtype=float)
        x = np.asarray(phi.inverse(s_arr), dtype=float)
        with np.errstate(all="ignore"):
            slope = np.asarray(phi.density(x), dtype=float)
            # the generator slope vanishes at infinity and blows up at 0,
            # so its reciprocal is the convex density with the limits swapped
            out = 1.0 / slope
        return out

    return NStarFunction(
        density=density,
        eval_fn=phi.inverse,
        description=f"inverse({phi.description})" if phi.description else "inverse",
        quad=phi.quad,
    )


def complementary(
    phi: NStarFunction,
    quad: QuadConfig | None = None,
    *,
    use_registered: bool = True,
) -> NStarFunction:
    """Complementary generator: invert the conjugate of the generator inverse.

    The returned generator evaluates by monotone root finding over the
    conjugate's eval_fn and exposes that eval_fn as its exact inverse, so a
    second complementation never stacks a root-find on a root-find. The
    conjugate is kept as source_nfunction.
    """
    if use_registered and phi.registered_complementary is not None:
        return phi.registered_complementary()
    if quad is None:
        quad = dataclasses.replace(phi.quad, tol=min(phi.quad.tol, 1e-11))
    m = inverse_as_nfunction(phi)
    mbar = conjugate_nfunction(m, quad, use_registered=use_registered)

    def hat_eval(a):
        return invert_increasing(mbar.eval_fn, a)

    def hat_density(t):
        t_arr = np.asarray(t, dtype=float)
        val = np.asarray(hat_eval(np.abs(t_arr)), dtype=float)
        with np.errstate(all="ignore"):
            slope = np.asarray(mbar.density(val), dtype=float)
            out = np.where(slope > 0, 1.0 / slope, np.inf)
        return out

    return NStarFunction(
        density=hat_density,
        eval_fn=hat_eval,
        inverse_fn=mbar.eval_fn,
        description=f"complementary({phi.description})" if phi.description else "complementary",
        quad=quad,
        source_nfunction=mbar,
    )


def delta2_solve(
    phi: NStarFunction,
    k0: float,
    grid,
    *,
    spread_tol: float = 1e-8,
    residual_tol: float = 1e-10,
) -> Delta2Certificate:
    """Solve 2*phi(x) = phi(k x) for k in [2, k0] at every grid point.

    Preconditions checked on the grid: k0 > 2 and 2*phi(x) <= phi(k0 x)
    (the doubling hypothesis), plus phi(2x) <= 2*phi(x) which any concave
    generator satisfies. Both sign conditions bracket a root, so bisection
    cannot fail. A global constant is reported only when the per-point
    solutions agree to spread_tol in relative terms.
    """
    if not k0 > 2:
        raise DomainError("doubling constant k0 must exceed 2")
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or np.any(xs <= 0) or not np.all(np.isfinite(xs)):
        raise DomainError("sample grid must be finite and strictly positive")
    twice = 2.0 * np.asarray(phi(xs), dtype=float)
    top = np.asarray(phi(k0 * xs), dtype=float)
    if np.any(top < twice * (1 - 1e-12)):
        worst = xs[np.argmin(top - twice)]
        raise NotDelta2Error(
            f"doubling hypothesis 2*phi(x) <= phi(k0*x) fails at x={worst:.6g} for k0={k0:g}"
        )
    bottom = np.asarray(phi(2.0 * xs), dtype=float)
    if np.any(bottom > twice * (1 + 1e-12)):
        worst = xs[np.argmax(bottom - twice)]
        raise NotDelta2Error(
            f"phi(2x) <= 2*phi(x) fails at x={worst:.6g}; not a concave generator"
        )
    lo, hi = bisect_increasing(
        lambda k: phi(k * xs), twice, np.full(xs.shape, 2.0), np.full(xs.shape, float(k0))
    )
    ks = 0.5 * (lo + hi)
    resid = np.abs(np.asarray(phi(ks * xs), dtype=float) - twice)
    residual_max = float(np.max(resid / np.maximum(twice, 1e-300)))
    if residual_max > residual_tol:
        raise NonconvergenceError(
            f"doubling bisection residual {residual_max:.3e} exceeds tolerance {residual_tol:.3e}"
        )
    k_min = float(ks.min())
    k_max = float(ks.max())
    spread = (k_max - k_min) / max(abs(k_max), 1e-300)
    if spread < spread_tol:
        status = "exact_global"
        k_global = float(np.median(ks))
    else:
        status = "per_x_only"
        k_global = None
    return Delta2Certificate(
        k0=float(k0),
        xs=xs,
        ks=ks,
        status=status,
        k_global=k_global,
        k_min=k_min,
        k_max=k_max,
        residual_max=residual_max,
    )


def growth_factor(phi: NStarFunction, grid=None) -> float:
    """Largest sampled ratio phi(2x)/phi(x); at most 2 for a valid generator."""
    if grid is None:
        grid = np.geomspace(1e-6, 1e6, 241)
    xs = np.asarray(grid, dtype=float)
    if np.any(xs <= 0):
        raise DomainError("growth grid must be strictly positive")
    vals = np.asarray(phi(xs), dtype=float)
    doubled = np.asarray(phi(2.0 * xs), dtype=float)
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

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

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


def _trend_check(name: str, ratio_edge: float, ratio_ref: float, factor: float, direction: str):
    # direction "up": edge ratio must exceed factor * reference
    if direction == "up":
        margin = ratio_edge / max(ratio_ref, 1e-300) - factor
    else:
        margin = 1.0 / max(ratio_edge / max(ratio_ref, 1e-300), 1e-300) - factor
    return ValidationCheck(
        name=name,
        passed=bool(margin >= 0.0),
        residual=float(margin),
        note=f"edge/ref ratio {ratio_edge / max(ratio_ref, 1e-300):.3e}",
    )


def validate_nstar(
    phi: NStarFunction,
    grid=None,
    *,
    samples: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
    trend_factor: float = 10.0,
) -> ValidationReport:
    """Probe every structural property of a candidate generator.

    Failures are report entries, never exceptions. Beyond the direct
    properties (evenness, monotonicity, concavity, subadditivity,
    superhomogeneity, ratio limits, density shape), the numerically
    inverted generator is checked to behave like a convex Young function,
    which is the cross-characterization of validity.
    """
    if grid is None:
        grid = np.geomspace(1e-8, 1e8, 33)
    xs = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(seed)
    checks: list[ValidationCheck] = []

    with np.errstate(all="ignore"):
        vals = np.asarray(phi(xs), dtype=float)
        scale = float(np.max(np.abs(vals))) + 1.0

        v0 = float(phi(0.0))
        checks.append(ValidationCheck("phi_zero_at_zero", abs(v0) <= tol, abs(v0)))

        even_res = float(np.max(np.abs(np.asarray(phi(-xs), dtype=float) - vals)))
        checks.append(ValidationCheck("phi_even", even_res <= tol * scale, even_res))

        mono = float(np.min(np.diff(vals)))
        checks.append(ValidationCheck("phi_nondecreasing", mono >= -tol * scale, mono))

        lo, hi = float(xs.min()), float(xs.max())
        x1 = np.exp(rng.uniform(np.log(lo), np.log(hi), samples))
        x2 = np.exp(rng.uniform(np.log(lo), np.log(hi), samples))
        p1 = np.asarray(phi(x1), dtype=float)
        p2 = np.asarray(phi(x2), dtype=float)
        pair_scale = np.maximum(p1 + p2, 1e-300)

        conc = (np.asarray(phi(0.5 * (x1 + x2)), dtype=float) - 0.5 * (p1 + p2)) / pair_scale
        worst = float(np.min(conc))
        checks.append(ValidationCheck("phi_midpoint_concave", worst >= -tol, worst))

        sub = (p1 + p2 - np.asarray(phi(x1 + x2), dtype=float)) / pair_scale
        worst = float(np.min(sub))
        checks.append(ValidationCheck("phi_subadditive", worst >= -tol, worst))

        alphas = rng.uniform(0.0, 1.0, samples)
        sup = (np.asarray(phi(alphas * x1), dtype=float) - alphas * p1) / np.maximum(p1, 1e-300)
        worst = float(np.min(sup))
        checks.append(ValidationCheck("phi_superhomogeneous", worst >= -tol, worst))

        ratios = vals / xs
        ref_idx = xs.size // 2
        checks.append(
            _trend_check(
                "phi_ratio_unbounded_at_zero", float(ratios[0]), float(ratios[ref_idx]), trend_factor, "up"
            )
        )
        checks.append(
            _trend_check(
                "phi_ratio_vanishes_at_infinity",
                float(ratios[-1]),
                float(ratios[ref_idx]),
                trend_factor,
                "down",
            )
        )

        dens = np.asarray(phi.density(xs), dtype=float)
        finite = np.isfinite(dens)
        dpos = float(np.min(dens[finite])) if finite.any() else float("nan")
        checks.append(ValidationCheck("density_positive", bool(finite.any() and dpos > 0), dpos))
        dv = dens[finite]
        dmono = float(np.max(np.diff(dv) / np.maximum(dv[:-1], 1e-300))) if dv.size > 1 else 0.0
        checks.append(ValidationCheck("density_nonincreasing", dmono <= tol, dmono))
        checks.append(
            _trend_check(
                "density_unbounded_at_zero",
                float(dens[0]) if np.isfinite(dens[0]) else float(np.max(dv)) * trend_factor * 2,
                float(dv[dv.size // 2]),
                trend_factor,
                "up",
            )
        )
        checks.append(
            _trend_check(
                "density_vanishes_at_infinity",
                float(dv[-1]),
                float(dv[dv.size // 2]),
                trend_factor,
                "down",
            )
        )

        # cross-characterization: the numeric inverse must be a convex Young function
        ys = np.sort(vals[vals > 0])
        try:
            if ys.size < 8:
                raise NonconvergenceError("generator not invertible on grid")
            inv = np.asarray(invert_increasing(phi.__call__, ys), dtype=float)
            y1 = np.exp(rng.uniform(np.log(ys[0]), np.log(ys[-1]), samples))
            y2 = np.exp(rng.uniform(np.log(ys[0]), np.log(ys[-1]), samples))
            m1 = np.asarray(invert_increasing(phi.__call__, y1), dtype=float)
            m2 = np.asarray(invert_increasing(phi.__call__, y2), dtype=float)
            mmid = np.asarray(invert_increasing(phi.__call__, 0.5 * (y1 + y2)), dtype=float)
        except NonconvergenceError as exc:
            # also a level the generator never reaches, as for power p=1e-300
            checks.append(ValidationCheck("inverse_midpoint_convex", False, float("nan"), str(exc)))
            return ValidationReport(tuple(checks))
        conv = (0.5 * (m1 + m2) - mmid) / np.maximum(m1 + m2, 1e-300)
        worst = float(np.min(conv))
        # numeric inversion carries bisection noise; allow a wider band
        inv_tol = max(tol, 1e-9)
        checks.append(ValidationCheck("inverse_midpoint_convex", worst >= -inv_tol, worst))
        iratios = inv / ys
        ir_ref = float(iratios[iratios.size // 2])
        checks.append(
            _trend_check(
                "inverse_ratio_vanishes_at_zero", float(iratios[0]), ir_ref, trend_factor, "down"
            )
        )
        checks.append(
            _trend_check(
                "inverse_ratio_unbounded_at_infinity",
                float(iratios[-1]),
                ir_ref,
                trend_factor,
                "up",
            )
        )

    return ValidationReport(tuple(checks))
