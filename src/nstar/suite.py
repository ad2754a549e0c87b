"""Seeded check-suite runner over a generator and a measure space.

Aggregates the per-instance inequality checks into one record per check
name with the extreme slacks observed across the sampled instances:
{name, slack_min, slack_max, pass}. Diagnostic notes (for example additive
sandwich counterexamples or triangle-inequality witnesses) ride along
without affecting pass/fail. Given the same seed the output is identical.
"""

from __future__ import annotations

import numpy as np

from .calculus import NStarFunction, complementary, delta2_solve
from .errors import DocumentError
from .measure import MeasurableFn, MeasureSpace, simple_approximation
from .space import (
    CheckReport,
    convergence_equivalence,
    intersection_check,
    l1_embedding_bound_check,
    modular,
    modular_to_norm_bound_check,
    product_identity_check,
    quasi_triangle_check,
    reversed_jensen_check,
    young_type_check,
)

__all__ = ["CHECK_NAMES", "run_check_suite", "default_doubling_constant"]

CHECK_NAMES = (
    "young_type",
    "reversed_jensen",
    "quasi_triangle",
    "l1_embedding",
    "modular_to_norm",
    "product_identity",
    "intersection",
    "convergence",
)


def default_doubling_constant(phi: NStarFunction) -> float:
    """Doubling constant from the attached certificate, else solved on a log grid."""
    if phi.delta2 is not None:
        return phi.delta2.bound_constant
    grid = np.geomspace(1e-3, 1e3, 25)
    for k0 in (8.0, 32.0, 128.0, 1024.0):
        try:
            cert = delta2_solve(phi, k0, grid)
        except Exception:
            continue
        return cert.bound_constant
    raise DocumentError("could not certify a doubling constant for this generator")


def _merge(name: str, reports: list[CheckReport]) -> CheckReport:
    live = [r for r in reports if r.passed is not None]
    notes: list[str] = []
    for r in reports:
        notes.extend(r.notes)
    if not live:
        return CheckReport(name, float("nan"), float("nan"), None, tuple(notes))
    return CheckReport(
        name=name,
        slack_min=min(r.slack_min for r in live),
        slack_max=max(r.slack_max for r in live),
        passed=all(r.passed for r in live),
        notes=tuple(dict.fromkeys(notes)),
    )


def _random_fn(rng: np.random.Generator, space: MeasureSpace, scale: float = 3.0) -> MeasurableFn:
    return MeasurableFn(rng.uniform(-scale, scale, space.size), space)


def run_check_suite(
    phi: NStarFunction,
    space: MeasureSpace,
    checks=CHECK_NAMES,
    *,
    samples: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
) -> list[CheckReport]:
    """Run the named checks with seeded random instances; one record per check."""
    if samples < 1:
        # with no instance every sampled check would pass vacuously
        raise DocumentError(f"samples must be at least 1, got {samples}")
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise DocumentError(f"unknown checks {unknown}; known: {', '.join(CHECK_NAMES)}")
    rng = np.random.default_rng(seed)
    phi_hat = None
    if any(c in checks for c in ("young_type", "product_identity", "intersection")):
        phi_hat = complementary(phi)
    k = None
    k_note = None
    if any(c in checks for c in ("quasi_triangle", "modular_to_norm")):
        try:
            k = default_doubling_constant(phi)
        except DocumentError as exc:
            # without a doubling constant the k-dependent bounds do not apply
            k_note = str(exc)
    records: list[CheckReport] = []
    for name in checks:
        if name in ("quasi_triangle", "modular_to_norm") and k is None:
            records.append(
                CheckReport(name, float("nan"), float("nan"), None, (f"skipped: {k_note}",))
            )
            continue
        if name == "young_type":
            reports = [
                young_type_check(phi, space, _random_fn(rng, space), _random_fn(rng, space), phi_hat=phi_hat, tol=tol)
                for _ in range(samples)
            ]
        elif name == "reversed_jensen":
            reports = [
                reversed_jensen_check(phi, space, _random_fn(rng, space), tol=tol)
                for _ in range(samples)
            ]
        elif name == "quasi_triangle":
            reports = [
                quasi_triangle_check(phi, space, _random_fn(rng, space), _random_fn(rng, space), k=k, tol=tol)
                for _ in range(samples)
            ]
        elif name == "l1_embedding":
            reports = [
                l1_embedding_bound_check(phi, space, _random_fn(rng, space), tol=tol)
                for _ in range(samples)
            ]
        elif name == "modular_to_norm":
            reports = []
            for _ in range(samples):
                f = _random_fn(rng, space)
                rho = modular(phi, space, f).value
                c = rho * rng.uniform(1.1, 4.0) + 1e-12
                reports.append(modular_to_norm_bound_check(phi, space, f, c, k=k, tol=tol))
        elif name == "product_identity":
            grid = np.geomspace(1e-4, 1e4, 41)
            reports = [product_identity_check(phi, grid, phi_hat=phi_hat)]
        elif name == "intersection":
            reports = [
                intersection_check(phi, space, _random_fn(rng, space), phi_hat=phi_hat, tol=tol)
                for _ in range(samples)
            ]
        elif name == "convergence":
            target = MeasurableFn(rng.uniform(0.0, 1.0, space.size), space)
            seq = [simple_approximation(target, level) for level in range(1, 41)]
            # threshold scales with total mass: the metric is an integral
            threshold = 1e-2 * max(1.0, space.total_mass)
            report = convergence_equivalence(phi, space, seq, target, threshold=threshold)
            final = max(report.metric_distances[-1], report.norm_distances[-1])
            reports = [
                CheckReport(
                    name="convergence",
                    slack_min=float(report.threshold - final),
                    slack_max=float(report.threshold - final),
                    passed=bool(report.verdict and final < threshold),
                    notes=(),
                )
            ]
        records.append(_merge(name, reports))
    return records
