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
from .errors import CapacityError, DomainError, NonconvergenceError
from .measure import BLOCK, MeasurableFn, MeasureSpace, disjoint_positive_family, prefix_within
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
]

# seeded points of the route-independent unit-ball pass in operator_norm_bruteforce
UNIT_BALL_POINTS = 100
# decay rate of the modular density of halving_instance's f0 across the interval
HALVING_DECAY_RATE = 16.0
# relative rounding allowance of the demos' asserted bounds: halving contraction,
# functional mass, and the averaged modular staying at or above epsilon
DEMO_TOL = 1e-9


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
            raise DomainError(
                f"functional has {coeff.size} coefficients for a space of size {self.space.size}"
            )
        if not np.all(np.isfinite(coeff)):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeff)
        coeff.setflags(write=False)


def evaluate_functional(U: AtomicFunctional, f: MeasurableFn) -> float:
    """U(f) = sum_i u_i * f_i with absolute convergence verified."""
    if not f.space.same_as(U.space):
        raise DomainError("function does not live on the functional's space")
    with np.errstate(over="ignore"):
        total_abs = float(np.dot(np.abs(U.coefficients), np.abs(f.values)))
    if not np.isfinite(total_abs):
        raise NonconvergenceError("functional sum does not converge absolutely")
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
        raise NonconvergenceError(f"the witness phi^-1(1/a) on atom {index} overflows the float range")
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
    The split search (prefix_within) reads the support's modular weights
    only up to the slice of BLOCK cells where the split falls. A round then
    makes one pass over the kept piece in slices of BLOCK cells: each slice
    is counted, doubled in place, checked for overflow and passed through
    phi once. phi(2|g|) divided by phi(|g|), carried from the round before,
    gives the slice's largest doubling ratio; phi(2|g|) is then written over
    phi(|g|), and the slice's modular weights and f * u are written with
    their least and largest weight, which the next round's weight check and
    contraction bound read. Every temporary of the pass has at most BLOCK
    elements. The modular, the functional value and the two split values
    are still sums and dots over the whole space, so every recorded number
    is the one a plain loop over full arrays gives, bit for bit, under one
    BLAS thread count: np.dot of the same long vectors can differ in the
    last bit between thread counts.

    Argument errors (DomainError): theta outside (0, 1), iterations below
    1, a functional value of f0 that is neither 0 nor finite and at least
    1, or an f0 of modular 0. A round that overflows or breaks its bounds
    raises NonconvergenceError.
    """
    if space.is_atomic:
        raise DomainError("the halving construction needs the non-atomic model")
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must lie strictly between 0 and 1")
    if iterations < 1:
        raise DomainError("iterations must be at least 1")
    if not f0.space.same_as(space) or not kernel.space.same_as(space):
        raise DomainError("f0 and kernel must live on the given space")

    masses = space.masses
    u = kernel.values
    # fu = f * u and nu = phi(|f|) * mass over the whole space, zero off the support
    with np.errstate(over="ignore", invalid="ignore"):
        fu = f0.values * u
        phi0 = float(np.dot(fu, masses))
    # a vanishing functional is a degenerate but valid input (the trace then
    # only exhibits modular decay); a nonzero unscaled one is a caller error
    if not np.isfinite(phi0) or 0.0 < abs(phi0) < 1.0 - 1e-12:
        raise DomainError("scale f0 or the kernel so the functional value is 0 or finite and at least 1")

    lo, hi = 0, space.size
    # f and phi(|f|) on the support only; f is doubled and phi_f overwritten in place
    f = f0.values.copy()
    phi_f = np.empty(space.size)
    with np.errstate(over="ignore"):
        for a in range(0, space.size, BLOCK):
            phi_f[a : a + BLOCK] = phi(f[a : a + BLOCK])
        nu = phi_f * masses
        rho = float(nu.sum())
    if rho == 0.0:
        raise DomainError("f0 has modular 0, so nothing decays")
    # least and largest modular weight on the support, and zero
    nu_min, nu_max = float(nu.min(initial=0.0)), float(nu.max(initial=0.0))
    part = np.zeros(space.size)
    val = phi0
    steps: list[HalvingStep] = [HalvingStep(0, rho, val, 0, int(np.count_nonzero(f)))]
    c_phi = 1.0
    keep_fraction = max(theta, 1.0 - theta)
    for n in range(1, iterations + 1):
        if not (np.isfinite(rho) and nu_min >= 0.0):
            raise NonconvergenceError(f"halving step {n}: modular weights must be non-negative and finite")
        # the longest prefix of cells whose modular mass stays <= theta * rho;
        # cells before lo add nothing, and if the whole support fits, so does every cell after it
        cut = prefix_within(nu[lo:hi], theta * rho)
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
        nu[dropped] = 0.0
        fu[dropped] = 0.0
        # one pass over the kept piece in slices of BLOCK cells: double g, take
        # phi(2g) and its ratio to phi(g), then write phi(2g) over phi(g), nu and fu
        support_cells = 0
        ratio = -np.inf
        support_max = nu_max
        nu_min = nu_max = 0.0
        for a in range(new_lo, new_hi, BLOCK):
            b = min(a + BLOCK, new_hi)
            g = f[a - lo : b - lo]
            phi_g = phi_f[a - lo : b - lo]
            nonzero = g != 0.0
            support_cells += int(np.count_nonzero(nonzero))
            with np.errstate(over="ignore"):
                g *= 2.0
                if not np.all(np.isfinite(g)):
                    raise NonconvergenceError(
                        f"halving step {n}: doubling the kept piece overflows the float range"
                    )
                phi_next = phi(g)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # np.maximum, unlike max, keeps a NaN ratio, as one np.max over the piece does
                ratio = np.maximum(ratio, np.max(phi_next / phi_g, where=nonzero, initial=-np.inf))
                phi_g[...] = phi_next
                weights = np.multiply(phi_next, masses[a:b], out=nu[a:b])
                np.multiply(g, u[a:b], out=fu[a:b])
            nu_min = min(nu_min, float(weights.min()))
            nu_max = max(nu_max, float(weights.max()))
        c_step = float(ratio) if support_cells else 1.0
        c_phi = max(c_phi, c_step)
        # the kept piece carries at most keep_fraction of the modular plus one cell
        allowance = c_step * support_max
        step_cap = c_step * keep_fraction * rho + allowance + DEMO_TOL * rho
        with np.errstate(over="ignore", invalid="ignore"):
            rho_next = float(nu.sum())
            val_next = float(np.dot(fu, masses))
        if not (np.isfinite(rho_next) and np.isfinite(val_next)):
            raise NonconvergenceError(f"halving step {n}: the modular or functional value overflows the float range")
        if rho_next > step_cap:
            raise NonconvergenceError(f"halving step {n} violated its modular contraction bound")
        if abs(val_next) < abs(val) - DEMO_TOL * max(abs(val), 1.0):
            raise NonconvergenceError(f"halving step {n} lost functional mass")
        step_bound = step_cap / rho if rho > 0 else 1.0
        f, phi_f = f[new_lo - lo : new_hi - lo], phi_f[new_lo - lo : new_hi - lo]
        lo, hi, rho, val = new_lo, new_hi, rho_next, val_next
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
        raise DomainError("the halving construction needs the non-atomic model")
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
    An epsilon that is not positive and finite raises DomainError.
    """
    if not 0 < epsilon < np.inf:
        raise DomainError("epsilon must be positive and finite")
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
        if modulars[m - 1] < epsilon * (1.0 - DEMO_TOL):
            raise NonconvergenceError(f"averaged modular dropped below epsilon at m={m}")
    return GrowthTrace(counts=counts, modulars=modulars, epsilon=float(epsilon))
