"""Linear functionals on the generated space.

On an atomic space every continuous linear functional acts as a coefficient
sum U(f) = sum_i u_i f_i. The paper brackets its norm between
S = max_i |u_i| phi^{-1}(1/a_i) and k * S (k the doubling constant); the
norm is in fact exactly S. The unit ball is the modular ball rho(f) <= 1,
and with s_i = phi(|f_i|) a_i there |U(f)| <= sum_i |u_i| phi^{-1}(s_i / a_i),
with equality for matching signs. That sum is convex in s, since phi^{-1}
of a concave generator is convex, and a convex function takes its maximum
over the simplex sum_i s_i <= 1 at a vertex (Rockafellar, Convex Analysis,
1970, Thm 32.2). The vertices are 0 and the single-atom witnesses, so
||U|| = S and the upper side k * S of the bracket is never tight.

On the non-atomic model the halving construction shows why no nonzero
bounded-kernel integral functional can be continuous: the modular can be
driven to zero while the functional value never drops. The averaging
construction shows the unit balls are not convex-generating: the modular
of averaged disjoint bumps grows without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import NStarFunction
from .errors import (
    DomainError,
    IndivisibleAtomsError,
    NotApplicableError,
    SpaceMismatchError,
)
from .measure import (
    MeasurableFn,
    MeasureSpace,
    disjoint_positive_family,
    find_subset_with_mass,
)
from .space import luxemburg_norm, modular

__all__ = [
    "AtomicFunctional",
    "HalvingStep",
    "HalvingTrace",
    "GrowthTrace",
    "evaluate_functional",
    "functional_norm_formula",
    "operator_norm_bruteforce",
    "single_atom_witness",
    "dual_zero_halving",
    "halving_instance",
    "nonconvexity_demo",
    "atom_dual_witness",
]

# seeded points of the route-independent unit-ball pass in operator_norm_bruteforce
UNIT_BALL_POINTS = 100


@dataclass(frozen=True)
class AtomicFunctional:
    """Coefficient family u_i acting on functions over an atomic space."""

    coefficients: np.ndarray
    space: MeasureSpace
    phi: NStarFunction

    def __post_init__(self):
        if not self.space.is_atomic:
            raise DomainError("atomic functionals require an atomic space")
        coeff = np.array(self.coefficients, dtype=float)
        if coeff.shape != (self.space.size,):
            raise SpaceMismatchError("one coefficient per atom is required")
        if not np.all(np.isfinite(coeff)):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeff)
        coeff.setflags(write=False)

    def __call__(self, f: MeasurableFn) -> float:
        return evaluate_functional(self, f)


def evaluate_functional(U: AtomicFunctional, f: MeasurableFn) -> float:
    """U(f) = sum_i u_i * f_i with absolute convergence verified."""
    if not f.space.same_as(U.space):
        raise SpaceMismatchError("function does not live on the functional's space")
    total_abs = float(np.dot(np.abs(U.coefficients), np.abs(f.values)))
    if not np.isfinite(total_abs):
        raise DomainError("functional sum does not converge absolutely")
    return float(np.dot(U.coefficients, f.values))


def functional_norm_formula(U: AtomicFunctional) -> float:
    """S = max_i |u_i| * phi^{-1}(1 / a_i), which is exactly ||U||.

    Atoms with u_i = 0 contribute exactly 0, even where phi^{-1}(1 / a_i)
    overflows; a nonzero coefficient on such an atom gives S = inf.
    """
    nonzero = U.coefficients != 0
    if not nonzero.any():
        return 0.0
    with np.errstate(over="ignore"):
        inv = np.asarray(U.phi.inverse(1.0 / U.space.masses[nonzero]), dtype=float)
        return float(np.max(np.abs(U.coefficients[nonzero]) * inv))


def single_atom_witness(U: AtomicFunctional, index: int) -> MeasurableFn:
    """f = phi^{-1}(1/a_i) on atom i, zero elsewhere; sits exactly on the unit sphere."""
    # a length-1 array takes numpy's vectorised loops, as in
    # functional_norm_formula; a scalar takes libm's pow, which can differ
    # from them in the last bit
    with np.errstate(over="ignore"):
        value = float(np.asarray(U.phi.inverse(1.0 / U.space.masses[[index]]))[0])
    if not np.isfinite(value):
        raise DomainError(f"the witness phi^-1(1/a) on atom {index} overflows the float range")
    vals = np.zeros(U.space.size)
    vals[index] = value
    return MeasurableFn(vals, U.space)


def operator_norm_bruteforce(U: AtomicFunctional, seed: int = 0) -> float:
    """Largest |U(f)| / ||f|| over the single-atom witnesses and seeded unit-ball points.

    ||U|| = S is attained at a single-atom witness (see the module
    docstring: |U| is convex on the modular simplex, so its maximum sits at
    a vertex). The witness pass therefore returns S of
    functional_norm_formula bit for bit; atoms with u_i = 0 are skipped,
    since they contribute exactly 0. UNIT_BALL_POINTS seeded points through
    the quasi-norm itself follow as a route-independent check; they can add
    only the quasi-norm's residual error above S.
    """
    best = 0.0
    for i in np.flatnonzero(U.coefficients):
        best = max(best, abs(evaluate_functional(U, single_atom_witness(U, i))))
    rng = np.random.default_rng(seed)
    for _ in range(UNIT_BALL_POINTS):
        fn = MeasurableFn(rng.uniform(-1.0, 1.0, U.space.size), U.space)
        norm = luxemburg_norm(U.phi, U.space, fn).value
        if norm > 0:
            best = max(best, abs(evaluate_functional(U, fn)) / norm)
    return best


@dataclass(frozen=True)
class HalvingStep:
    iteration: int
    modular: float
    functional_value: float
    prefix_cells: int
    support_cells: int
    # enforced bound on modular(this step) / modular(previous step); 1 at step 0
    step_bound: float = 1.0


@dataclass(frozen=True)
class HalvingTrace:
    """Iteration log of the support-halving construction.

    decay_bound[n] is the reference curve (c_phi * max(theta, 1-theta))^n
    scaled by the initial modular; the recorded modulars must stay below it
    up to per-step grid residuals, while the functional values never drop.
    """

    steps: tuple[HalvingStep, ...]
    theta: float
    c_phi: float

    @property
    def modulars(self) -> np.ndarray:
        return np.asarray([s.modular for s in self.steps])

    @property
    def functional_values(self) -> np.ndarray:
        return np.asarray([s.functional_value for s in self.steps])

    def decay_bound(self) -> np.ndarray:
        factor = self.c_phi * max(self.theta, 1.0 - self.theta)
        n = np.arange(len(self.steps))
        return self.steps[0].modular * factor**n


def dual_zero_halving(
    phi: NStarFunction,
    space: MeasureSpace,
    f0: MeasurableFn,
    kernel: MeasurableFn,
    iterations: int,
    theta: float = 0.5,
    *,
    tol: float = 1e-9,
) -> HalvingTrace:
    """Drive the modular to zero while a bounded-kernel integral functional holds.

    Each round splits the support by accumulated modular mass at fraction
    theta, keeps the piece with the larger |integral g * u|, and doubles it.
    The kept piece carries at least half of the functional value, so after
    doubling the functional never decreases (up to rounding); the modular
    contracts by about c_phi * max(theta, 1 - theta) per round. Atomic
    spaces are rejected: an atom cannot be split, which is exactly why
    atoms carry nonzero functionals.
    """
    if space.is_atomic:
        raise IndivisibleAtomsError("the halving construction needs the non-atomic model")
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must lie strictly between 0 and 1")
    if not f0.space.same_as(space) or not kernel.space.same_as(space):
        raise SpaceMismatchError("f0 and kernel must live on the given space")

    def phi_value(fn: MeasurableFn) -> float:
        return float(np.dot(fn.values * kernel.values, space.masses))

    def modular_weights(fn: MeasurableFn) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.asarray(phi(np.abs(fn.values)), dtype=float) * space.masses

    phi0 = phi_value(f0)
    # a vanishing functional is a degenerate but valid input (the trace then
    # only exhibits modular decay); a nonzero unscaled one is a caller error
    if 0.0 < abs(phi0) < 1.0 - 1e-12:
        raise DomainError("scale f0 so the functional value is at least 1")

    f = f0
    nu = modular_weights(f)
    rho = float(nu.sum())
    val = phi0
    steps: list[HalvingStep] = [
        HalvingStep(0, rho, val, 0, int(np.count_nonzero(f.values)))
    ]
    c_phi = 1.0
    keep_fraction = max(theta, 1.0 - theta)
    for n in range(1, iterations + 1):
        prefix = find_subset_with_mass(space, nu, theta * rho)
        mask = np.zeros(space.size, dtype=bool)
        mask[prefix] = True
        g1 = MeasurableFn(np.where(mask, f.values, 0.0), space)
        g2 = MeasurableFn(np.where(mask, 0.0, f.values), space)
        v1, v2 = phi_value(g1), phi_value(g2)
        g = g1 if abs(v1) >= abs(v2) else g2
        pos = np.abs(g.values[g.values != 0.0])
        if pos.size:
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = np.asarray(phi(2.0 * pos), dtype=float) / np.asarray(phi(pos), dtype=float)
            c_step = float(np.max(ratio))
        else:
            c_step = 1.0
        c_phi = max(c_phi, c_step)
        f_next = 2.0 * g
        nu_next = modular_weights(f_next)
        rho_next = float(nu_next.sum())
        val_next = phi_value(f_next)
        # the kept piece carries at most keep_fraction of the modular plus one cell
        allowance = c_step * float(nu.max()) if nu.size else 0.0
        step_cap = c_step * keep_fraction * rho + allowance + tol * rho
        if rho_next > step_cap:
            raise DomainError(f"halving step {n} violated its modular contraction bound")
        if abs(val_next) < abs(val) - tol * max(abs(val), 1.0):
            raise DomainError(f"halving step {n} lost functional mass")
        step_bound = step_cap / rho if rho > 0 else 1.0
        f, nu, rho, val = f_next, nu_next, rho_next, val_next
        steps.append(
            HalvingStep(
                n, rho, val, int(prefix.size), int(np.count_nonzero(f.values)), step_bound
            )
        )
    return HalvingTrace(steps=tuple(steps), theta=theta, c_phi=c_phi)


def halving_instance(
    phi: NStarFunction,
    space: MeasureSpace,
    *,
    decay_rate: float = 16.0,
) -> tuple[MeasurableFn, MeasurableFn]:
    """A smooth starting function and matched bounded kernel for the halving demo.

    The modular density of f0 decays exponentially across the interval, so
    every split point falls in a region of many small cells and the prefix
    residual stays a tiny fraction of the modular; the kernel weights f0
    to a constant, which keeps the functional mass on the surviving piece.
    """
    if space.is_atomic:
        raise IndivisibleAtomsError("the halving construction needs the non-atomic model")
    x = space.midpoints() / space.length
    target_modular_density = np.exp(-decay_rate * x)
    f_vals = np.asarray(phi.inverse(target_modular_density), dtype=float)
    with np.errstate(divide="ignore"):
        u_vals = np.where(f_vals > 0, 1.0 / f_vals, 0.0)
    f0 = MeasurableFn(f_vals, space)
    raw = float(np.dot(f_vals * u_vals, space.masses))
    scale = 2.0 / raw
    kernel = MeasurableFn(u_vals * scale, space)
    return f0, kernel


@dataclass(frozen=True)
class GrowthTrace:
    """Modulars of averaged disjoint unit-modular bumps, by bump count."""

    counts: np.ndarray
    modulars: np.ndarray
    epsilon: float


def nonconvexity_demo(
    phi: NStarFunction,
    space: MeasureSpace,
    epsilon: float,
    n: int,
    *,
    tol: float = 1e-9,
) -> GrowthTrace:
    """Average n disjoint bumps of modular epsilon and record the growth.

    Each bump f_k = phi^{-1}(epsilon / mu(A_k)) on its own piece has
    modular exactly epsilon; the running averages h_m keep modular at least
    epsilon because phi(x/m) >= phi(x)/m, and on power families the growth
    is exactly epsilon * m^(1-p). Unbounded growth of these averages is
    what rules out convex neighborhoods of zero.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    pieces = disjoint_positive_family(space, n)
    bump_vals = np.zeros(space.size)
    for piece in pieces:
        mass = float(space.masses[piece].sum())
        bump_vals[piece] = float(phi.inverse(epsilon / mass))
    counts = np.arange(1, n + 1)
    modulars = np.empty(n, dtype=float)
    accum = np.zeros(space.size)
    for m in counts:
        piece = pieces[m - 1]
        accum[piece] = bump_vals[piece]
        h_m = MeasurableFn(accum / m, space)
        modulars[m - 1] = modular(phi, space, h_m).value
        if modulars[m - 1] < epsilon * (1.0 - tol):
            raise DomainError(f"averaged modular dropped below epsilon at m={m}")
    return GrowthTrace(counts=counts, modulars=modulars, epsilon=float(epsilon))


def atom_dual_witness(space: MeasureSpace, atom_id, phi: NStarFunction) -> AtomicFunctional:
    """Evaluation functional f -> f(atom): nonzero, linear, bounded.

    The witness exists exactly when the space has an atom of finite
    positive mass; interval models have none and are rejected.
    """
    if not space.is_atomic:
        raise NotApplicableError("no atoms: the evaluation functional does not exist here")
    if isinstance(atom_id, (int, np.integer)):
        index = int(atom_id)
        if not 0 <= index < space.size:
            raise DomainError(f"atom index {index} out of range")
    else:
        if space.atom_ids is None or str(atom_id) not in space.atom_ids:
            raise DomainError(f"unknown atom id {atom_id!r}")
        index = space.atom_ids.index(str(atom_id))
    coeff = np.zeros(space.size)
    coeff[index] = 1.0
    return AtomicFunctional(coefficients=coeff, space=space, phi=phi)
