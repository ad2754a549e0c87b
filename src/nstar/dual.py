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
    CapacityError,
    DomainError,
    IndivisibleAtomsError,
    NotApplicableError,
    SpaceMismatchError,
)
from .measure import MeasurableFn, MeasureSpace, disjoint_positive_family, prefix_within
from .space import luxemburg_norm

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
# decay rate of the modular density of halving_instance's f0 across the interval
HALVING_DECAY_RATE = 16.0


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
        inv = U.phi.inverse(1.0 / U.space.masses[nonzero])
        return float(np.max(np.abs(U.coefficients[nonzero]) * inv))


def single_atom_witness(U: AtomicFunctional, index: int) -> MeasurableFn:
    """f = phi^{-1}(1/a_i) on atom i, zero elsewhere; sits exactly on the unit sphere."""
    # a length-1 array takes numpy's vectorised loops, as in
    # functional_norm_formula; a scalar takes libm's pow, which can differ
    # from them in the last bit
    with np.errstate(over="ignore"):
        value = float(U.phi.inverse(1.0 / U.space.masses[[index]])[0])
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

    Every split is a prefix, so the support stays one contiguous range
    [lo, hi) of cells, and phi(0) = 0 gives the cells off it no modular.
    A round makes one generator pass, phi(2|g|) over the kept piece: it
    gives the next modular weights, and divided by phi(|g|), carried from
    the round before, the round's doubling ratio. Sums and integrals still
    run over the whole space, so every recorded number is the one a plain
    loop over full arrays gives, bit for bit.
    """
    if space.is_atomic:
        raise IndivisibleAtomsError("the halving construction needs the non-atomic model")
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must lie strictly between 0 and 1")
    if not f0.space.same_as(space) or not kernel.space.same_as(space):
        raise SpaceMismatchError("f0 and kernel must live on the given space")

    masses = space.masses
    u = kernel.values
    # fu = f * u and nu = phi(|f|) * mass over the whole space, zero off the support
    with np.errstate(over="ignore", invalid="ignore"):
        fu = f0.values * u
        phi0 = float(np.dot(fu, masses))
    if not np.isfinite(phi0):
        raise DomainError("the functional value of f0 overflows the float range")
    # a vanishing functional is a degenerate but valid input (the trace then
    # only exhibits modular decay); a nonzero unscaled one is a caller error
    if 0.0 < abs(phi0) < 1.0 - 1e-12:
        raise DomainError("scale f0 so the functional value is at least 1")

    lo, hi = 0, space.size
    # f and phi(|f|) on the support only; f is doubled in place
    f = f0.values.copy()
    with np.errstate(over="ignore"):
        phi_f = phi(f)
        nu = phi_f * masses
        rho = float(nu.sum())
    part = np.zeros(space.size)
    val = phi0
    steps: list[HalvingStep] = [HalvingStep(0, rho, val, 0, int(np.count_nonzero(f)))]
    c_phi = 1.0
    keep_fraction = max(theta, 1.0 - theta)
    for n in range(1, iterations + 1):
        support = nu[lo:hi]
        if not (np.isfinite(rho) and support.min(initial=0.0) >= 0.0):
            raise DomainError(f"halving step {n}: modular weights must be non-negative and finite")
        # the longest prefix of cells whose modular mass stays <= theta * rho;
        # cells before lo add nothing, and if the whole support fits, so does every cell after it
        cut = prefix_within(support, theta * rho)
        split = lo + cut
        prefix_cells = split if cut < hi - lo else space.size
        # part holds the prefix side of fu, fu keeps the rest
        part[lo:split] = fu[lo:split]
        fu[lo:split] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            v1, v2 = float(np.dot(part, masses)), float(np.dot(fu, masses))
        part[lo:split] = 0.0
        if abs(v1) >= abs(v2):
            new_lo, new_hi, dropped = lo, split, slice(split, hi)
        else:
            new_lo, new_hi, dropped = split, hi, slice(lo, split)
        g = f[new_lo - lo : new_hi - lo]
        phi_g = phi_f[new_lo - lo : new_hi - lo]
        support_cells = int(np.count_nonzero(g))
        with np.errstate(over="ignore"):
            g *= 2.0
        if not np.all(np.isfinite(g)):
            raise DomainError(f"halving step {n}: doubling the kept piece overflows the float range")
        with np.errstate(over="ignore"):
            phi_next = phi(g)
        if support_cells:
            nonzero = g != 0.0
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                c_step = float(np.max(phi_next[nonzero] / phi_g[nonzero]))
        else:
            c_step = 1.0
        c_phi = max(c_phi, c_step)
        # the kept piece carries at most keep_fraction of the modular plus one cell
        allowance = c_step * float(support.max(initial=0.0))
        step_cap = c_step * keep_fraction * rho + allowance + tol * rho
        nu[dropped] = 0.0
        fu[dropped] = 0.0
        kept = slice(new_lo, new_hi)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(phi_next, masses[kept], out=nu[kept])
            np.multiply(g, u[kept], out=fu[kept])
            rho_next = float(nu.sum())
            val_next = float(np.dot(fu, masses))
        if not (np.isfinite(rho_next) and np.isfinite(val_next)):
            raise DomainError(f"halving step {n}: the modular or functional value overflows the float range")
        if rho_next > step_cap:
            raise DomainError(f"halving step {n} violated its modular contraction bound")
        if abs(val_next) < abs(val) - tol * max(abs(val), 1.0):
            raise DomainError(f"halving step {n} lost functional mass")
        step_bound = step_cap / rho if rho > 0 else 1.0
        lo, hi, f, phi_f, rho, val = new_lo, new_hi, g, phi_next, rho_next, val_next
        steps.append(HalvingStep(n, rho, val, prefix_cells, support_cells, step_bound))
    return HalvingTrace(steps=tuple(steps), theta=theta, c_phi=c_phi)


def halving_instance(phi: NStarFunction, space: MeasureSpace) -> tuple[MeasurableFn, MeasurableFn]:
    """A smooth starting function and matched bounded kernel for the halving demo.

    The modular density of f0, e^(-HALVING_DECAY_RATE x / L), decays
    exponentially across the interval, so every split point falls in a
    region of many small cells and the prefix residual stays a tiny fraction
    of the modular; the kernel weights f0 to a constant, which keeps the
    functional mass on the surviving piece. CapacityError when that kernel
    leaves the float range: some f0 lies within about 2/max-float of 0, or
    every f0 underflows to 0.
    """
    if space.is_atomic:
        raise IndivisibleAtomsError("the halving construction needs the non-atomic model")
    x = space.midpoints() / space.length
    f_vals = phi.inverse(np.exp(-HALVING_DECAY_RATE * x))
    # 1/f0 overflows to inf, and 2/raw to inf when raw is 0; the check below rejects both
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u_vals = np.where(f_vals > 0, 1.0 / f_vals, 0.0)
        raw = float(np.dot(f_vals * u_vals, space.masses))
        u_vals = u_vals * np.divide(2.0, raw)
    if not np.all(np.isfinite(u_vals)):
        tiny = f_vals[f_vals > 0]
        what = f"the smallest positive f0 is {tiny.min():.6g}" if tiny.size else "every f0 underflows to 0"
        raise CapacityError(f"the kernel 1/f0 leaves the float range: {what}")
    return MeasurableFn(f_vals, space), MeasurableFn(u_vals, space)


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

    Each bump f_k, of height beta_k = phi^{-1}(epsilon / mu(A_k)) on its own
    piece A_k, has modular exactly epsilon; the running averages h_m keep modular at least
    epsilon because phi(x/m) >= phi(x)/m, and on power families the growth
    is exactly epsilon * m^(1-p). Unbounded growth of these averages is
    what rules out convex neighborhoods of zero.

    Each bump is constant on its piece and phi(0) = 0, so
    rho(h_m) = sum_{k<=m} phi(beta_k / m) mu(A_k): O(n^2) generator work
    on the n piece masses and heights, with no generator pass over the
    cells. Summing the piece masses still reads each cell's mass once.
    CapacityError when the space cannot carry n such bumps: it has fewer
    than n atoms or cells, or a height beta_k overflows or underflows to 0.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    pieces = disjoint_positive_family(space, n)
    masses = np.array([space.masses[piece].sum() for piece in pieces])
    with np.errstate(over="ignore"):
        levels = epsilon / masses
    heights = phi.inverse(levels)
    in_range = (heights > 0) & (heights < np.inf)
    if not np.all(in_range):
        k = int(np.argmin(in_range))
        what = "underflows to 0" if heights[k] == 0 else "overflows the float range"
        raise CapacityError(f"bump height phi^-1({levels[k]:.6g}) on piece {k + 1} {what}")
    counts = np.arange(1, n + 1)
    modulars = np.empty(n, dtype=float)
    for m in counts:
        values = phi(heights[:m] / m)
        modulars[m - 1] = float(np.dot(values, masses[:m]))
        if modulars[m - 1] < epsilon * (1.0 - tol):
            raise DomainError(f"averaged modular dropped below epsilon at m={m}")
    return GrowthTrace(counts=counts, modulars=modulars, epsilon=float(epsilon))


def atom_dual_witness(space: MeasureSpace, index: int, phi: NStarFunction) -> AtomicFunctional:
    """Evaluation functional f -> f(atom index): nonzero, linear, bounded.

    The witness exists exactly when the space has an atom of finite
    positive mass; interval models have none and are rejected.
    """
    if not space.is_atomic:
        raise NotApplicableError("no atoms: the evaluation functional does not exist here")
    if not (isinstance(index, (int, np.integer)) and 0 <= index < space.size):
        raise DomainError(f"atom index must be an integer in [0, {space.size}), got {index!r}")
    coeff = np.zeros(space.size)
    coeff[index] = 1.0
    return AtomicFunctional(coefficients=coeff, space=space, phi=phi)
