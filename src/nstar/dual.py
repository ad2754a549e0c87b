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

Every sum over atoms or cells here (a functional value, a modular of the
halving construction, the scale of its kernel) follows measure's sum rule:
math.fsum of np.dot partials over pieces of BLOCK = 2^13 cells. It lies
within gamma_(k+1) * sum |x_i y_i| of the exact sum, k = min(n, BLOCK),
and does not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import NStarFunction
from .errors import DomainError, NonconvergenceError
from .measure import (
    BLOCK,
    MeasurableFn,
    MeasureSpace,
    blocked_dot,
    disjoint_positive_family,
    fsum_partials,
    prefix_within,
)
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
    "halving_f0",
    "halving_kernel",
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
    total_abs = blocked_dot(np.abs(U.coefficients), np.abs(f.values))
    if not np.isfinite(total_abs):
        raise NonconvergenceError("functional sum does not converge absolutely")
    return blocked_dot(U.coefficients, f.values)


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
    return MeasurableFn._adopt(vals, U.space)


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
        fn = MeasurableFn._adopt(rng.uniform(-1.0, 1.0, U.space.size), U.space)
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
    Doubling is exact short of overflow, so after n rounds f is f0 * 2^n on
    the support: each round reads it from the read-only f0, and nothing
    copies f. A round makes one pass over the kept piece in slices of BLOCK
    cells counted from its first cell, the pieces of measure's sum rule.
    Each slice is counted, scaled, checked for overflow and passed through
    phi once. phi(2|g|) divided by phi(|g|), carried from the round before,
    gives the slice's largest doubling ratio, and phi(2|g|) is then written
    over phi(|g|). The pass returns each slice's partials of the modular
    (phi(|f|) . mass) and of the functional value (f u . mass), and the
    least and largest modular weight phi(|f|) * mass, which the next
    round's weight check and contraction bound read. The modular and the
    functional value are the fsum of their partials. The split search runs
    the sum of the modular partials up to the piece where it passes
    theta * rho, and continues it cell by cell inside that piece only
    (prefix_within). The two split values are the functional partials on
    either side of that piece plus its two parts. No array but phi(|f|)
    has more than BLOCK cells, and every recorded number follows the sum
    rule, so none depends on the BLAS thread count.

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

    masses, u, start = space.masses, kernel.values, f0.values
    # phi(|f|) on the support, carried from round to round
    phi_f = np.empty(space.size)

    def sweep(n: int, lo: int, hi: int):
        """The pass of round n over f = f0 * 2^n on [lo, hi); round 0 takes no ratio."""
        rho_parts, val_parts = [], []
        nu_min = nu_max = 0.0
        cells, ratio = 0, -np.inf
        for a in range(lo, hi, BLOCK):
            b = min(a + BLOCK, hi)
            nonzero = start[a:b] != 0.0
            cells += int(np.count_nonzero(nonzero))
            with np.errstate(over="ignore"):
                g = np.ldexp(start[a:b], n)
                if not np.all(np.isfinite(g)):
                    raise NonconvergenceError(
                        f"halving step {n}: doubling the kept piece overflows the float range"
                    )
                phi_g = phi(g)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if n:
                    # np.maximum, unlike max, keeps a NaN ratio, as one np.max over the piece does
                    ratio = np.maximum(ratio, np.max(phi_g / phi_f[a:b], where=nonzero, initial=-np.inf))
                phi_f[a:b] = phi_g
                weights = phi_g * masses[a:b]
                rho_parts.append(np.dot(phi_g, masses[a:b]))
                val_parts.append(np.dot(g * u[a:b], masses[a:b]))
            nu_min = min(nu_min, float(weights.min()))
            nu_max = max(nu_max, float(weights.max()))
        return rho_parts, val_parts, nu_min, nu_max, cells, float(ratio)

    lo, hi = 0, space.size
    rho_parts, val_parts, nu_min, nu_max, cells, _ = sweep(0, lo, hi)
    val = fsum_partials(val_parts)
    # a vanishing functional is a degenerate but valid input (the trace then
    # only exhibits modular decay); a nonzero unscaled one is a caller error
    if not np.isfinite(val) or 0.0 < abs(val) < 1.0 - 1e-12:
        raise DomainError("scale f0 or the kernel so the functional value is 0 or finite and at least 1")
    rho = fsum_partials(rho_parts)
    if rho == 0.0:
        raise DomainError("f0 has modular 0, so nothing decays")
    steps: list[HalvingStep] = [HalvingStep(0, rho, val, 0, cells)]
    c_phi = 1.0
    keep_fraction = max(theta, 1.0 - theta)
    for n in range(1, iterations + 1):
        if not (np.isfinite(rho) and nu_min >= 0.0):
            raise NonconvergenceError(f"halving step {n}: modular weights must be non-negative and finite")
        # the split falls in piece j, the first whose modular partial takes the
        # running sum past theta * rho; if none does, the whole support fits
        target = theta * rho
        runs = np.cumsum(rho_parts)
        j = int(np.searchsorted(runs, target, side="right"))
        if j < len(rho_parts):
            a = lo + j * BLOCK
            b = min(a + BLOCK, hi)
            with np.errstate(over="ignore", invalid="ignore"):
                split = a + prefix_within(phi_f[a:b] * masses[a:b], target, float(runs[j - 1]) if j else 0.0)
                piece = np.ldexp(start[a:b], n - 1) * u[a:b]
                left = np.dot(piece[: split - a], masses[a:split])
                right = np.dot(piece[split - a :], masses[split:b])
            v1 = fsum_partials([*val_parts[:j], left])
            v2 = fsum_partials([right, *val_parts[j + 1 :]])
        else:
            split, v1, v2 = hi, val, 0.0
        prefix_cells = split if split < hi else space.size
        new_lo, new_hi = (lo, split) if abs(v1) >= abs(v2) else (split, hi)
        support_max = nu_max
        rho_parts, val_parts, nu_min, nu_max, cells, ratio = sweep(n, new_lo, new_hi)
        c_step = ratio if cells else 1.0
        c_phi = max(c_phi, c_step)
        # the kept piece carries at most keep_fraction of the modular plus one cell
        allowance = c_step * support_max
        step_cap = c_step * keep_fraction * rho + allowance + DEMO_TOL * rho
        rho_next, val_next = fsum_partials(rho_parts), fsum_partials(val_parts)
        if not (np.isfinite(rho_next) and np.isfinite(val_next)):
            raise NonconvergenceError(f"halving step {n}: the modular or functional value overflows the float range")
        if rho_next > step_cap:
            raise NonconvergenceError(f"halving step {n} violated its modular contraction bound")
        if abs(val_next) < abs(val) - DEMO_TOL * max(abs(val), 1.0):
            raise NonconvergenceError(f"halving step {n} lost functional mass")
        step_bound = step_cap / rho if rho > 0 else 1.0
        lo, hi, rho, val = new_lo, new_hi, rho_next, val_next
        steps.append(HalvingStep(n, rho, val, prefix_cells, cells, step_bound))
    return HalvingTrace(steps=tuple(steps), theta=theta, c_phi=c_phi)


def halving_f0(phi: NStarFunction, space: MeasureSpace) -> MeasurableFn:
    """The halving demo's smooth starting function, f0 = phi^-1(e^(-HALVING_DECAY_RATE x / L)).

    Its modular density decays exponentially across the interval, so every
    split point falls in a region of many small cells and the prefix
    residual stays a tiny fraction of the modular. Built a slice of BLOCK
    cells at a time; every step is elementwise.
    """
    if space.is_atomic:
        raise DomainError("the halving construction needs the non-atomic model")
    values = np.empty(space.size)
    for a in range(0, space.size, BLOCK):
        x = space.midpoints(a, min(a + BLOCK, space.size)) / space.length
        values[a : a + BLOCK] = phi.inverse(np.exp(-HALVING_DECAY_RATE * x))
    return MeasurableFn._adopt(values, space)


def halving_kernel(f0: MeasurableFn) -> MeasurableFn:
    """The bounded kernel that weights f0 to a constant: 2/c times 1/f0 where f0 > 0, and 0 elsewhere.

    c is the integral of f0 * (1/f0), taken by the sum rule, so the
    functional value of f0 is 2, and it stays on the surviving piece.
    Built a slice of BLOCK cells at a time. DomainError when the kernel
    leaves the float range: some f0 lies within about 2/max-float of 0, or
    no f0 is positive.
    """
    f, masses = f0.values, f0.space.masses
    u = np.empty(f.size)
    parts = []
    # 1/f0 overflows to inf, and 2/c to inf when c is 0; the check below rejects both
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a in range(0, f.size, BLOCK):
            piece = f[a : a + BLOCK]
            u[a : a + BLOCK] = np.where(piece > 0, 1.0 / piece, 0.0)
            parts.append(np.dot(piece * u[a : a + BLOCK], masses[a : a + BLOCK]))
        u *= np.divide(2.0, fsum_partials(parts))
    if not np.all(np.isfinite(u)):
        tiny = f[f > 0]
        what = f"the smallest positive f0 is {tiny.min():.6g}" if tiny.size else "every f0 underflows to 0"
        raise DomainError(f"the kernel 1/f0 leaves the float range: {what}")
    return MeasurableFn._adopt(u, f0.space)


def halving_instance(phi: NStarFunction, space: MeasureSpace) -> tuple[MeasurableFn, MeasurableFn]:
    """halving_f0 and its halving_kernel: a smooth f0 and matched bounded kernel for the halving demo."""
    f0 = halving_f0(phi, space)
    return f0, halving_kernel(f0)


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
    DomainError when epsilon is not positive and finite, or when the space
    cannot carry n such bumps: it has fewer than n atoms or cells, or a
    height beta_k overflows or underflows to 0.
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
        raise DomainError(f"bump height phi^-1({levels[k]:.6g}) on piece {k + 1} {what}")
    counts = np.arange(1, n + 1)
    modulars = np.empty(n, dtype=float)
    for m in counts:
        values = phi(heights[:m] / m)
        modulars[m - 1] = blocked_dot(values, masses[:m])
        if modulars[m - 1] < epsilon * (1.0 - DEMO_TOL):
            raise NonconvergenceError(f"averaged modular dropped below epsilon at m={m}")
    return GrowthTrace(counts=counts, modulars=modulars, epsilon=float(epsilon))
