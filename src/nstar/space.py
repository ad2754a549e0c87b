"""Modular, metric and Luxemburg quasi-norm of the generated function space.

For a concave generator phi and a finite measure space, the modular of f is
the integral of phi(|f|); the metric between f and g is the modular of
f - g; and the quasi-norm of f is the smallest lambda scaling f into the
modular unit ball. The quasi-norm is positively homogeneous but satisfies
the triangle inequality only up to the doubling constant, which is exactly
what the inequality checks in this module quantify. Every check reports a
signed slack (bound minus attained value) rather than a bare boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import NStarFunction, complementary
from .errors import DomainError, NonconvergenceError
from .measure import MeasurableFn, MeasureSpace, blocked_dot, integrate, weighted_sum

__all__ = [
    "ModularValue",
    "QuasiNormResult",
    "CheckReport",
    "ConvergenceReport",
    "modular",
    "metric",
    "luxemburg_norm",
    "quasi_triangle_check",
    "young_type_check",
    "reversed_jensen_check",
    "l1_embedding_bound_check",
    "modular_to_norm_bound_check",
    "product_identity_check",
    "intersection_check",
    "convergence_equivalence",
]

LUX_RESIDUAL_TOL = 1e-10
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class ModularValue:
    """Integral of phi(|f|); finite is False when evaluation overflowed."""

    value: float
    finite: bool


@dataclass(frozen=True)
class QuasiNormResult:
    value: float
    lambda_residual: float
    iterations: int


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    slack_min/slack_max summarize the signed slack over all evaluated
    instances (positive slack means the bound holds with room). passed is
    None when the check was skipped because its precondition failed.
    notes carry diagnostic findings that do not affect pass/fail.
    """

    name: str
    slack_min: float
    slack_max: float
    passed: bool | None
    notes: tuple[str, ...] = ()
    data: dict = field(default_factory=dict)

    @classmethod
    def skip(cls, name: str, *notes: str) -> CheckReport:
        """A check whose precondition failed: no slack, passed None, the notes say why."""
        return cls(name, float("nan"), float("nan"), None, notes)

    @property
    def skipped(self) -> bool:
        return self.passed is None

    def to_record(self) -> dict:
        rec = {
            "name": self.name,
            "slack_min": self.slack_min,
            "slack_max": self.slack_max,
            "pass": bool(self.passed) if self.passed is not None else None,
        }
        if self.notes:
            rec["notes"] = list(self.notes)
        return rec


def modular(phi: NStarFunction, space: MeasureSpace, f: MeasurableFn) -> ModularValue:
    """rho(f) = integral of phi(|f|) d mu. Overflow yields an infinite flag, not a fault."""
    # phi is even, so it takes f's values as they are
    value = integrate(space, phi, f)
    return ModularValue(value=value, finite=bool(np.isfinite(value)))


def metric(phi: NStarFunction, space: MeasureSpace, f: MeasurableFn, g: MeasurableFn) -> float:
    """d(f, g): the modular of f - g. Symmetric since the generator is even.

    One blocked pass (weighted_sum) forms f - g a slice at a time; a
    difference past the float range raises DomainError, as f - g does.
    """
    if not (f.space.same_as(space) and g.space.same_as(space)):
        raise DomainError("functions must live on the given space")

    def phi_of_difference(a, b):
        d = a - b
        if not np.all(np.isfinite(d)):
            raise DomainError("function values must be finite")
        return phi(d)

    return weighted_sum(phi_of_difference, space.masses, f.values, g.values)


def luxemburg_norm(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
) -> QuasiNormResult:
    """Smallest lambda with modular(f / lambda) <= 1.

    lambda -> rho(f/lambda) is continuous and strictly decreasing through 1
    on finite spaces. The bracket grows from max|f|, inside the normal
    float range, on the side its modular lies on, by steps of 2, 4, 16,
    ..., 2^32, then 1e12: at most 56 steps. Bisection on a geometric
    midpoint that cannot overflow or underflow stops when the modular
    residual is inside LUX_RESIDUAL_TOL or the bracket collapses to
    rounding width, within about 61 steps. A bracket that collapses with
    the residual still above LUX_RESIDUAL_TOL raises NonconvergenceError:
    there the modular jumps across 1 because f/lambda overflows or
    underflows. Each step is one blocked pass over f's cells (weighted_sum).
    """
    if not f.space.same_as(space):
        raise DomainError("function does not live on the given space")
    values, masses = f.values, space.masses
    top = max(float(values.max()), -float(values.min()))
    if top == 0.0:
        return QuasiNormResult(0.0, 0.0, 0)

    def rho(lam: float) -> float:
        # inf where max|f|/lambda overflows: a generator need not take an infinite argument
        if math.isinf(top / lam):
            return math.inf
        # phi is even, so it takes f's values as they are
        out = weighted_sum(lambda v: phi(v / lam), masses, values)
        return out if np.isfinite(out) else math.inf

    iterations = 0
    lo = hi = max(top, _TINY)
    # value is the modular at the last point evaluated, rho_lo the one at lo
    value = rho_lo = rho(lo)
    step = 2.0
    while value > 1.0:
        if hi >= _MAX:
            raise NonconvergenceError("no upper bracket for the quasi-norm")
        hi = min(hi * step, _MAX)
        step = min(step * step, 1e12)
        iterations += 1
        value = rho(hi)
    while rho_lo < 1.0:
        if lo <= _TINY:
            # the modular never reaches 1 from above: f is a modular null
            raise NonconvergenceError("no lower bracket for the quasi-norm")
        lo = max(lo / step, _TINY)
        step = min(step * step, 1e12)
        iterations += 1
        rho_lo = rho(lo)
    while True:
        prod = lo * hi
        lam = math.sqrt(prod) if _TINY <= prod <= _MAX else math.sqrt(lo) * math.sqrt(hi)
        value = rho(lam)
        iterations += 1
        resid = abs(value - 1.0)
        if resid <= LUX_RESIDUAL_TOL or (hi - lo) <= 1e-15 * hi:
            break
        if value > 1.0:
            lo, rho_lo = lam, value
        else:
            hi = lam
    if resid > LUX_RESIDUAL_TOL:
        # the bracket closed on a jump of the modular across 1, not on a root;
        # the jump is an overflow when the modular above 1 is infinite
        above = value if value > 1.0 else rho_lo
        edge = "overflows" if math.isinf(above) else "underflows"
        raise NonconvergenceError(
            f"f/lambda {edge} before the modular comes down to 1 (near lambda = {lam:.6g})"
        )
    return QuasiNormResult(value=float(lam), lambda_residual=float(resid), iterations=iterations)


def _slack_report(name: str, bound, value, scale: float, tol: float, data: dict, notes=()) -> CheckReport:
    """One instance of value <= bound: it holds when the slack bound - value is >= -tol * scale."""
    slack = float(bound - value)
    return CheckReport(name, slack, slack, bool(slack >= -tol * scale), tuple(notes), data)


def _sandwich_report(name: str, lower, upper, tol: float, data: dict, notes=()) -> CheckReport:
    """A two-sided bound, its scaled slacks lower and upper scalars or arrays: it holds when all are >= -tol."""
    slack_min = float(min(np.min(lower), np.min(upper)))
    slack_max = float(max(np.max(lower), np.max(upper)))
    return CheckReport(name, slack_min, slack_max, bool(slack_min >= -tol), tuple(notes), data)


def quasi_triangle_check(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
    g: MeasurableFn,
    *,
    k: float,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """Ratio ||f+g|| / (||f|| + ||g||) against the doubling constant k.

    A ratio above 1 witnesses failure of the plain triangle inequality;
    that is reported as a note, never as a failure. Both summands zero
    yields ratio 0 by convention.
    """
    k = float(k)
    nf = luxemburg_norm(phi, space, f).value
    ng = luxemburg_norm(phi, space, g).value
    if nf + ng == 0.0:
        ratio = 0.0
    else:
        ratio = luxemburg_norm(phi, space, f + g).value / (nf + ng)
    notes = []
    if ratio > 1.0 + tol:
        notes.append(f"triangle inequality fails: ratio {ratio:.9g} > 1")
    data = {"ratio": ratio, "k": k, "norm_f": nf, "norm_g": ng}
    return _slack_report("quasi_triangle", k, ratio, 1.0, tol, data, notes)


def young_type_check(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
    g: MeasurableFn,
    *,
    phi_hat: NStarFunction | None = None,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """integral of phi(|f|) * phi_hat(|g|) against integral |f| + integral |g|."""
    phi_hat = phi_hat if phi_hat is not None else complementary(phi)
    if not f.space.same_as(space) or not g.space.same_as(space):
        raise DomainError("functions must live on the given space")
    left = weighted_sum(lambda a, b: phi(a) * phi_hat(b), space.masses, f.values, g.values)
    right = integrate(space, np.abs, f) + integrate(space, np.abs, g)
    scale = max(abs(left), abs(right), 1.0)
    return _slack_report("young_type", right, left, scale, tol, {"left": left, "right": right})


def reversed_jensen_check(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
    *,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """phi of the mean of |f| dominates the mean of phi(|f|) on finite measure."""
    mu = space.total_mass
    if not (np.isfinite(mu) and mu > 0):
        raise DomainError("reversed Jensen needs finite positive total mass")
    mean_abs = integrate(space, np.abs, f) / mu
    lhs = float(phi(mean_abs))
    rhs = modular(phi, space, f).value / mu
    scale = max(abs(lhs), abs(rhs), 1.0)
    data = {"phi_of_mean": lhs, "mean_modular": rhs}
    return _slack_report("reversed_jensen", lhs, rhs, scale, tol, data)


def l1_embedding_bound_check(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
    *,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """Quasi-norm against ||f||_1 / (mu(X) * phi^{-1}(1/mu(X))) on finite measure."""
    mu = space.total_mass
    if not (np.isfinite(mu) and mu > 0):
        raise DomainError("the L1 embedding needs finite positive total mass")
    l1 = integrate(space, np.abs, f)
    # mu * phi^-1(1/mu) leaves the float range when mu is near either end of
    # it; underflow to 0 gives the bound inf, which holds trivially
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        bound = float(np.divide(l1, mu * phi.inverse(1.0 / mu)))
    norm = luxemburg_norm(phi, space, f).value
    scale = max(abs(bound), abs(norm), 1.0)
    return _slack_report("l1_embedding", bound, norm, scale, tol, {"norm": norm, "bound": bound, "l1": l1})


def modular_to_norm_bound_check(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
    c: float,
    *,
    k: float,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """Modular below c forces quasi-norm below k^(floor(ln c / ln 2) + 1).

    When the precondition modular(f) < c fails the check is skipped
    (passed is None), not failed.
    """
    k = float(k)
    rho = modular(phi, space, f)
    if not rho.finite or not rho.value < c:
        note = f"precondition modular < c failed: modular={rho.value:.6g}, c={c:.6g}"
        return CheckReport.skip("modular_to_norm", note)
    # with c or k^n0 past the float range the bound is inf, which holds trivially
    n0 = math.floor(math.log(c) / math.log(2.0)) + 1 if c < math.inf else math.inf
    try:
        bound = k**n0
    except OverflowError:
        bound = math.inf
    norm = luxemburg_norm(phi, space, f).value
    data = {"n0": n0, "bound": bound, "norm": norm, "modular": rho.value, "c": c}
    return _slack_report("modular_to_norm", bound, norm, max(abs(bound), 1.0), tol, data)


def product_identity_check(
    phi: NStarFunction,
    alpha_grid,
    *,
    phi_hat: NStarFunction | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """alpha <= phi(alpha) * phi_hat(alpha) <= 2 alpha on a positive grid.

    The additive variant alpha < phi(alpha) + phi_hat(alpha) <= 2 alpha is
    evaluated as a diagnostic only: points where either additive bound
    fails are listed in the notes and never fail the check, because the
    product form is the inequality the closed families actually satisfy.
    """
    phi_hat = phi_hat if phi_hat is not None else complementary(phi)
    alphas = np.asarray(alpha_grid, dtype=float)
    if np.any(alphas <= 0):
        raise DomainError("the sandwich is stated for strictly positive arguments")
    pv = phi(alphas)
    hv = phi_hat(alphas)
    product = pv * hv
    lower = (product - alphas) / alphas
    upper = (2.0 * alphas - product) / alphas
    total = pv + hv
    notes = []
    bad_low = alphas[total <= alphas * (1 + 1e-12)]
    bad_high = alphas[total > 2.0 * alphas * (1 + 1e-12)]
    if bad_low.size:
        notes.append(
            f"additive lower bound fails at {bad_low.size} grid points, e.g. alpha={bad_low[0]:.6g} "
            f"(sum {float(total[alphas == bad_low[0]][0]):.6g} <= alpha)"
        )
    if bad_high.size:
        notes.append(
            f"additive upper bound fails at {bad_high.size} grid points, e.g. alpha={bad_high[0]:.6g}"
        )
    data = {"alphas": alphas, "product": product, "sum": total}
    return _sandwich_report("product_identity", lower, upper, tol, data, notes)


def intersection_check(
    phi: NStarFunction,
    space: MeasureSpace,
    f: MeasurableFn,
    *,
    phi_hat: NStarFunction | None = None,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """Membership sandwich: integral |f| <= integral phi(|f|) phi_hat(|f|) <= 2 integral |f|.

    Integrates the pointwise product sandwich; reports the three membership
    integrals alongside.
    """
    phi_hat = phi_hat if phi_hat is not None else complementary(phi)
    if not f.space.same_as(space):
        raise DomainError("function does not live on the given space")
    absv = np.abs(f.values)
    masses = space.masses
    with np.errstate(over="ignore", invalid="ignore"):
        pv = phi(absv)
        hv = phi_hat(absv)
        l1 = blocked_dot(absv, masses)
        mod_phi = blocked_dot(pv, masses)
        mod_hat = blocked_dot(hv, masses)
        prod = blocked_dot(pv * hv, masses)
    scale = max(l1, 1.0)
    data = {"l1": l1, "modular_phi": mod_phi, "modular_hat": mod_hat, "product_integral": prod}
    return _sandwich_report("intersection", (prod - l1) / scale, (2.0 * l1 - prod) / scale, tol, data)


@dataclass(frozen=True)
class ConvergenceReport:
    """Paired trajectories of metric distance and quasi-norm distance.

    verdict is True when the two notions of convergence agree: both
    trajectories end below the threshold, or neither does.
    """

    metric_distances: np.ndarray
    norm_distances: np.ndarray
    threshold: float
    verdict: bool


def convergence_equivalence(
    phi: NStarFunction,
    space: MeasureSpace,
    sequence: list[MeasurableFn],
    f: MeasurableFn,
    *,
    threshold: float = 1e-3,
) -> ConvergenceReport:
    """Track d(f_n, f) and ||f_n - f|| along a sequence and compare verdicts."""
    ds = []
    qs = []
    for fn in sequence:
        diff = fn - f
        ds.append(modular(phi, space, diff).value)
        qs.append(luxemburg_norm(phi, space, diff).value)
    ds_arr = np.asarray(ds)
    qs_arr = np.asarray(qs)
    d_ok = bool(ds_arr[-1] < threshold) if ds_arr.size else False
    q_ok = bool(qs_arr[-1] < threshold) if qs_arr.size else False
    return ConvergenceReport(
        metric_distances=ds_arr,
        norm_distances=qs_arr,
        threshold=threshold,
        verdict=d_ok == q_ok,
    )
