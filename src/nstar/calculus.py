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

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidDensityError, NonconvergenceError, NotDelta2Error
from .numerics import CumulativeIntegral, bisect_increasing, invert_increasing

__all__ = [
    "NStarFunction",
    "Delta2Certificate",
    "ValidationCheck",
    "ValidationReport",
    "complementary",
    "delta2_solve",
    "growth_factor",
    "validate_nstar",
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
    checks; validate_nstar probes them on sample grids.
    """

    density: Callable
    eval_fn: Callable | None = None
    inverse_fn: Callable | None = None
    description: str = ""
    registered_complementary: Callable[[], "NStarFunction"] | None = None
    delta2: "Delta2Certificate | None" = None
    source_nfunction: "NStarFunction | None" = None

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
    invert_increasing; G evaluates phi through its __call__. hat(0) is
    pinned to 0: a density with a finite limit p(0) would give 1/p(0).
    Such a hat jumps from 0 to 1/p(0) at 0, and hat^-1 raises
    NonconvergenceError for the levels in between, which hat never takes.
    The same algebra applied to hat returns x = G_hat(G(x)) and
    hat_hat(x) = phi(x), so the complement of hat is phi itself, recorded
    as registered_complementary; source_nfunction records phi as well.
    A density that is negative or increasing on _PROBE_GRID raises
    InvalidDensityError. Registered closed complements are returned
    unless use_registered is False.
    """
    if use_registered and phi.registered_complementary is not None:
        return phi.registered_complementary()
    with np.errstate(all="ignore"):
        probe = np.asarray(phi.density(_PROBE_GRID), dtype=float)
    probe = probe[np.isfinite(probe)]
    if np.any(probe < 0) or np.any(np.diff(probe) > 1e-9 * probe[:-1] + 1e-300):
        raise InvalidDensityError("complementation requires a non-negative, non-increasing density")

    def reciprocal_density(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(phi.density(x), dtype=float)

    def young_gap(x):
        # G(x) = phi(x)/p(x) - x, the conjugate of phi^-1 at slope 1/p(x)
        with np.errstate(invalid="ignore", over="ignore"):
            return np.asarray(phi(x), dtype=float) * reciprocal_density(x) - x

    def hat_eval(a):
        a = np.asarray(a, dtype=float)
        out = np.where(a > 0, reciprocal_density(invert_increasing(young_gap, a)), 0.0)
        return out if out.ndim else float(out)

    def hat_density(a):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(phi(invert_increasing(young_gap, np.abs(a))), dtype=float)

    def hat_inverse(y):
        return young_gap(invert_increasing(reciprocal_density, y))

    return NStarFunction(
        density=hat_density,
        eval_fn=hat_eval,
        inverse_fn=hat_inverse,
        description=f"complementary({phi.description})" if phi.description else "complementary",
        registered_complementary=lambda: phi,
        source_nfunction=phi,
    )


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
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or np.any(xs <= 0) or not np.all(np.isfinite(xs)):
        raise DomainError("sample grid must be finite and strictly positive")
    # k0 x > 2 x, so this also catches 2 x past the float range
    with np.errstate(over="ignore"):
        scaled = k0 * xs
    if not np.all(np.isfinite(scaled)):
        worst = xs[np.argmin(np.isfinite(scaled))]
        raise DomainError(f"k0*x overflows the float range at x={worst:.6g} for k0={k0:g}")
    # 2 phi(x) can still overflow near the top of the float range
    with np.errstate(over="ignore"):
        twice = 2.0 * np.asarray(phi(xs), dtype=float)
        top = np.asarray(phi(scaled), dtype=float)
        bottom = np.asarray(phi(2.0 * xs), dtype=float)
    if np.any(top < twice * (1 - 1e-12)):
        worst = xs[np.argmin(top - twice)]
        raise NotDelta2Error(
            f"doubling hypothesis 2*phi(x) <= phi(k0*x) fails at x={worst:.6g} for k0={k0:g}"
        )
    if np.any(bottom > twice * (1 + 1e-12)):
        worst = xs[np.argmax(bottom - twice)]
        raise NotDelta2Error(
            f"phi(2x) <= 2*phi(x) fails at x={worst:.6g}; not a concave generator"
        )
    lo, hi = bisect_increasing(
        lambda k: phi(k * xs), twice, np.full(xs.shape, 2.0), np.full(xs.shape, float(k0))
    )
    ks = 0.5 * lo + 0.5 * hi
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(np.asarray(phi(ks * xs), dtype=float) - twice)
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


_GROWTH_GRID = np.geomspace(1e-6, 1e6, 241)


def growth_factor(phi: NStarFunction) -> float:
    """Largest ratio phi(2x)/phi(x) over 1e-6..1e6; at most 2 for a valid generator."""
    xs = _GROWTH_GRID
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


_VALIDATE_SAMPLES = 200
_VALIDATE_TOL = 1e-7
_TREND_FACTOR = 10.0


def validate_nstar(phi: NStarFunction, grid=None, *, seed: int = 0) -> ValidationReport:
    """Probe every structural property of a candidate generator.

    Failures are report entries, never exceptions. Beyond the direct
    properties (evenness, monotonicity, concavity, subadditivity,
    superhomogeneity, ratio limits, density shape), the numerically
    inverted generator is checked to behave like a convex Young function,
    which is the cross-characterization of validity. 200 seeded random
    pairs, residuals to 1e-7, and tenfold trends toward the grid's edges.
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
        checks.append(ValidationCheck("phi_zero_at_zero", abs(v0) <= _VALIDATE_TOL, abs(v0)))

        even_res = float(np.max(np.abs(np.asarray(phi(-xs), dtype=float) - vals)))
        checks.append(ValidationCheck("phi_even", even_res <= _VALIDATE_TOL * scale, even_res))

        mono = float(np.min(np.diff(vals)))
        checks.append(ValidationCheck("phi_nondecreasing", mono >= -_VALIDATE_TOL * scale, mono))

        lo, hi = float(xs.min()), float(xs.max())
        x1 = np.exp(rng.uniform(np.log(lo), np.log(hi), _VALIDATE_SAMPLES))
        x2 = np.exp(rng.uniform(np.log(lo), np.log(hi), _VALIDATE_SAMPLES))
        p1 = np.asarray(phi(x1), dtype=float)
        p2 = np.asarray(phi(x2), dtype=float)
        pair_scale = np.maximum(p1 + p2, 1e-300)

        conc = (np.asarray(phi(0.5 * (x1 + x2)), dtype=float) - 0.5 * (p1 + p2)) / pair_scale
        worst = float(np.min(conc))
        checks.append(ValidationCheck("phi_midpoint_concave", worst >= -_VALIDATE_TOL, worst))

        sub = (p1 + p2 - np.asarray(phi(x1 + x2), dtype=float)) / pair_scale
        worst = float(np.min(sub))
        checks.append(ValidationCheck("phi_subadditive", worst >= -_VALIDATE_TOL, worst))

        alphas = rng.uniform(0.0, 1.0, _VALIDATE_SAMPLES)
        sup = (np.asarray(phi(alphas * x1), dtype=float) - alphas * p1) / np.maximum(p1, 1e-300)
        worst = float(np.min(sup))
        checks.append(ValidationCheck("phi_superhomogeneous", worst >= -_VALIDATE_TOL, worst))

        ratios = vals / xs
        ref_idx = xs.size // 2
        checks.append(
            _trend_check(
                "phi_ratio_unbounded_at_zero", float(ratios[0]), float(ratios[ref_idx]), _TREND_FACTOR, "up"
            )
        )
        checks.append(
            _trend_check(
                "phi_ratio_vanishes_at_infinity",
                float(ratios[-1]),
                float(ratios[ref_idx]),
                _TREND_FACTOR,
                "down",
            )
        )

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
            checks.append(
                _trend_check(
                    "density_unbounded_at_zero",
                    float(dens[0]) if np.isfinite(dens[0]) else float(np.max(dv)) * _TREND_FACTOR * 2,
                    float(dv[dv.size // 2]),
                    _TREND_FACTOR,
                    "up",
                )
            )
            checks.append(
                _trend_check(
                    "density_vanishes_at_infinity",
                    float(dv[-1]),
                    float(dv[dv.size // 2]),
                    _TREND_FACTOR,
                    "down",
                )
            )

        # cross-characterization: the numeric inverse must be a convex Young function
        ys = np.sort(vals[vals > 0])
        try:
            if ys.size < 8:
                raise NonconvergenceError("generator not invertible on grid")
            inv = np.asarray(invert_increasing(phi.__call__, ys), dtype=float)
            y1 = np.exp(rng.uniform(np.log(ys[0]), np.log(ys[-1]), _VALIDATE_SAMPLES))
            y2 = np.exp(rng.uniform(np.log(ys[0]), np.log(ys[-1]), _VALIDATE_SAMPLES))
            m1 = np.asarray(invert_increasing(phi.__call__, y1), dtype=float)
            m2 = np.asarray(invert_increasing(phi.__call__, y2), dtype=float)
            mmid = np.asarray(invert_increasing(phi.__call__, 0.5 * (y1 + y2)), dtype=float)
        except NonconvergenceError as exc:
            # also a level the generator never reaches, as for power p=1e-300
            checks.append(ValidationCheck("inverse_midpoint_convex", False, float("nan"), str(exc)))
            return ValidationReport(tuple(checks))
        conv = (0.5 * (m1 + m2) - mmid) / np.maximum(m1 + m2, 1e-300)
        worst = float(np.min(conv))
        checks.append(ValidationCheck("inverse_midpoint_convex", worst >= -_VALIDATE_TOL, worst))
        iratios = inv / ys
        ir_ref = float(iratios[iratios.size // 2])
        checks.append(
            _trend_check(
                "inverse_ratio_vanishes_at_zero", float(iratios[0]), ir_ref, _TREND_FACTOR, "down"
            )
        )
        checks.append(
            _trend_check(
                "inverse_ratio_unbounded_at_infinity",
                float(iratios[-1]),
                ir_ref,
                _TREND_FACTOR,
                "up",
            )
        )

    return ValidationReport(tuple(checks))
