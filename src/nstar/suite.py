"""Seeded check-suite runner over a generator and a measure space.

Aggregates the per-instance inequality checks into one record per check
name with the extreme slacks observed across the sampled instances:
{name, slack_min, slack_max, pass}. Diagnostic notes (for example additive
sandwich counterexamples or triangle-inequality witnesses) ride along
without affecting pass/fail. Given the same seed the output is identical.

Adding a check is one entry of _CHECKS: an instance function that draws
its inputs from the shared rng, whether it needs the complement or the
doubling constant k, and whether it runs once or once per sample.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .calculus import NStarFunction, complementary, delta2_solve
from .errors import DocumentError, NStarError
from .measure import MeasurableFn, MeasureSpace, simple_approximation
from .space import (
    SLACK_TOL,
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

DEFAULT_SAMPLES = 50
DEFAULT_SEED = 0


def default_doubling_constant(phi: NStarFunction) -> float:
    """Doubling constant of phi, certified by delta2_solve on a log grid."""
    grid = np.geomspace(1e-3, 1e3, 25)
    for k0 in (8.0, 32.0, 128.0, 1024.0):
        try:
            cert = delta2_solve(phi, k0, grid)
        except NStarError:
            continue
        return cert.bound_constant
    raise DocumentError("could not certify a doubling constant for this generator")


def _merge(name: str, reports: list[CheckReport]) -> CheckReport:
    live = [r for r in reports if r.passed is not None]
    notes = [note for r in reports for note in r.notes]
    if not live:
        return CheckReport(name, float("nan"), float("nan"), None, tuple(notes))
    return CheckReport(
        name=name,
        slack_min=min(r.slack_min for r in live),
        slack_max=max(r.slack_max for r in live),
        passed=all(r.passed for r in live),
        notes=tuple(dict.fromkeys(notes)),
    )


class _Run(NamedTuple):
    """What the instances of one suite run share; fn() draws a random function from rng."""

    phi: NStarFunction
    space: MeasureSpace
    rng: np.random.Generator
    phi_hat: NStarFunction | None
    k: float | None
    tol: float

    def fn(self, scale: float = 3.0) -> MeasurableFn:
        return MeasurableFn(self.rng.uniform(-scale, scale, self.space.size), self.space)


def _modular_to_norm(r: _Run) -> CheckReport:
    f = r.fn()
    c = modular(r.phi, r.space, f).value * r.rng.uniform(1.1, 4.0) + 1e-12
    return modular_to_norm_bound_check(r.phi, r.space, f, c, k=r.k, tol=r.tol)


def _convergence(r: _Run) -> CheckReport:
    target = MeasurableFn(r.rng.uniform(0.0, 1.0, r.space.size), r.space)
    seq = [simple_approximation(target, level) for level in range(1, 41)]
    # threshold scales with total mass: the metric is an integral
    threshold = 1e-2 * max(1.0, r.space.total_mass)
    report = convergence_equivalence(r.phi, r.space, seq, target, threshold=threshold)
    final = max(report.metric_distances[-1], report.norm_distances[-1])
    slack = float(report.threshold - final)
    return CheckReport("convergence", slack, slack, bool(report.verdict and final < threshold))


# instance(run) -> CheckReport; once: a single instance rather than one per sample
_Check = namedtuple("_Check", "instance needs_complement needs_k once", defaults=(False, False, False))

# the instances look the space checks up by name when they run, so a
# wrapper later bound over those names still sees every call
_CHECKS = {
    "young_type": _Check(
        lambda r: young_type_check(r.phi, r.space, r.fn(), r.fn(), phi_hat=r.phi_hat, tol=r.tol),
        needs_complement=True,
    ),
    "reversed_jensen": _Check(lambda r: reversed_jensen_check(r.phi, r.space, r.fn(), tol=r.tol)),
    "quasi_triangle": _Check(
        lambda r: quasi_triangle_check(r.phi, r.space, r.fn(), r.fn(), k=r.k, tol=r.tol), needs_k=True
    ),
    "l1_embedding": _Check(lambda r: l1_embedding_bound_check(r.phi, r.space, r.fn(), tol=r.tol)),
    "modular_to_norm": _Check(_modular_to_norm, needs_k=True),
    "product_identity": _Check(
        lambda r: product_identity_check(r.phi, np.geomspace(1e-4, 1e4, 41), phi_hat=r.phi_hat),
        needs_complement=True,
        once=True,
    ),
    "intersection": _Check(
        lambda r: intersection_check(r.phi, r.space, r.fn(), phi_hat=r.phi_hat, tol=r.tol), needs_complement=True
    ),
    "convergence": _Check(_convergence, once=True),
}
CHECK_NAMES = tuple(_CHECKS)


def run_check_suite(
    phi: NStarFunction,
    space: MeasureSpace,
    checks=CHECK_NAMES,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    tol: float = SLACK_TOL,
) -> list[CheckReport]:
    """Run the named checks with seeded random instances; one record per check."""
    if samples < 1:
        # with no instance every sampled check would pass vacuously
        raise DocumentError(f"samples must be at least 1, got {samples}")
    unknown = [c for c in checks if c not in _CHECKS]
    if unknown:
        raise DocumentError(f"unknown checks {unknown}; known: {', '.join(CHECK_NAMES)}")
    table = [_CHECKS[name] for name in checks]
    phi_hat = complementary(phi) if any(c.needs_complement for c in table) else None
    k = skip_note = None
    if any(c.needs_k for c in table):
        try:
            k = default_doubling_constant(phi)
        except DocumentError as exc:
            # without a doubling constant the k-dependent bounds do not apply
            skip_note = f"skipped: {exc}"
    run = _Run(phi, space, np.random.default_rng(seed), phi_hat, k, tol)
    records: list[CheckReport] = []
    for name, check in zip(checks, table):
        if check.needs_k and k is None:
            reports = [CheckReport(name, float("nan"), float("nan"), None, (skip_note,))]
        else:
            reports = [check.instance(run) for _ in range(1 if check.once else samples)]
        records.append(_merge(name, reports))
    return records
