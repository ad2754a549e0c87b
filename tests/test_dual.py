import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nstar import (
    AtomicFunctional,
    DomainError,
    MeasurableFn,
    MeasureSpace,
    NonconvergenceError,
    NStarFunction,
    alpha_exp_family,
    delta2_solve,
    dual_zero_halving,
    evaluate_functional,
    functional_norm_formula,
    halving_f0,
    halving_instance,
    log_sqrt_family,
    luxemburg_norm,
    nonconvexity_demo,
    operator_norm_bruteforce,
    power_family,
    scaled_power_family,
    single_atom_witness,
)
from nstar.measure import BLOCK
from oracle import mp_bump_modulars, mp_halving_f0, mp_power_modular, rule_sum

HALF = power_family(0.5)
U = 2.0**-53
CLOSED_FAMILIES = [power_family, scaled_power_family, alpha_exp_family, lambda _: log_sqrt_family()]


def counting(phi: NStarFunction) -> tuple[NStarFunction, list[int]]:
    """phi with its evaluations recorded: the element count of every pass."""
    sizes: list[int] = []

    def eval_fn(a):
        sizes.append(int(np.size(a)))
        return phi.eval_fn(a)

    return dataclasses.replace(phi, eval_fn=eval_fn), sizes


def reference_halving(phi, space, f0, kernel, iterations, theta):
    """The halving construction as a plain loop over full arrays, every sum by the sum rule.

    The modular and the functional value are rule sums over the support
    [lo, hi), whose pieces are those of BLOCK cells counted from cell 0,
    cut at lo and hi. The split runs the sum of the
    modular's pieces up to the piece where it passes theta * rho, then
    cell by cell (np.cumsum) inside that piece; the split values take the
    functional's pieces on either side of it plus its two parts. Returns
    one (modular, functional value, prefix cells, support cells, step
    bound) row per step, and c_phi.
    """
    masses, u = space.masses, kernel.values
    f = f0.values.copy()
    lo, hi = 0, f.size

    def grid():
        return [(max(lo, a), min(hi, a + BLOCK)) for a in range(lo - lo % BLOCK, hi, BLOCK) if lo < hi]

    def pieces(x):
        return [np.dot(x[a:b], masses[a:b]) for a, b in grid()]

    phi_f = np.asarray(phi(np.abs(f)), dtype=float)
    rho_parts, val_parts = pieces(phi_f), pieces(f * u)
    rho, val = math.fsum(rho_parts), math.fsum(val_parts)
    rows = [(rho, val, 0, int(np.count_nonzero(f)), 1.0)]
    c_phi = 1.0
    for _ in range(iterations):
        nu = phi_f * masses
        runs = np.cumsum(rho_parts)
        j = int(np.searchsorted(runs, theta * rho, side="right"))
        if j == len(rho_parts):
            k, v1, v2 = hi, val, 0.0
        else:
            a, b = grid()[j]
            before = runs[j - 1] if j else 0.0
            k = a + int(np.searchsorted(np.cumsum([before, *nu[a:b]])[1:], theta * rho, side="right"))
            fu = f * u
            v1 = math.fsum([*val_parts[:j], np.dot(fu[a:k], masses[a:k])])
            v2 = math.fsum([np.dot(fu[k:b], masses[k:b]), *val_parts[j + 1 :]])
        prefix = k if k < hi else f.size
        lo, hi = (lo, k) if abs(v1) >= abs(v2) else (k, hi)
        g = np.zeros_like(f)
        g[lo:hi] = f[lo:hi]
        pos = np.abs(g[g != 0.0])
        c_step = float(np.max(np.asarray(phi(2.0 * pos)) / np.asarray(phi(pos)))) if pos.size else 1.0
        c_phi = max(c_phi, c_step)
        f = 2.0 * g
        cap = c_step * max(theta, 1.0 - theta) * rho + c_step * float(nu.max()) + 1e-9 * rho
        bound = cap / rho if rho > 0 else 1.0
        phi_f = np.asarray(phi(np.abs(f)), dtype=float)
        rho_parts, val_parts = pieces(phi_f), pieces(f * u)
        rho, val = math.fsum(rho_parts), math.fsum(val_parts)
        rows.append((rho, val, prefix, int(np.count_nonzero(f)), bound))
    return rows, c_phi


def trace_rows(trace):
    return [
        (s.modular, s.functional_value, s.prefix_cells, s.support_cells, s.step_bound)
        for s in trace.steps
    ]


def without_degree(phi: NStarFunction) -> NStarFunction:
    """phi with no declared degree, so every halving round passes phi over the kept cells."""
    return dataclasses.replace(phi, degree=None, description=f"{phi.description}, no degree")


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    return k * U / (1 - k * U)


def record_error(n: int, q: float) -> float:
    """Relative distance allowed between a round-n modular read from the records and the direct pass's.

    Both sum the non-negative terms c |f_i|^q mass_i, f = f0 * 2^n, by the
    sum rule. The direct pass rounds each phi value twice, pow within one
    ulp (2u) and the product with c (u): 3u; the partial's dot and the
    fsum add gamma_(k+1), k <= BLOCK. A record is the same partial at level
    0 (3u + gamma_k); the scale 2^(n q) takes n q rounded (u relative, so
    ln 2 * n q * u after the power) and pow of its fractional part (2u),
    its integer part exactly (ldexp); the scaled partial and the fsum
    round once each (2u). Summed over both routes, to first order in u:
    2 gamma_(k+1) + (ln 2 * n q + 9) u.
    """
    return 2 * gamma(BLOCK + 1) + (math.log(2) * n * q + 9) * U


def assert_matches_reference(trace, rows, c_phi, q):
    """Bit for bit without a degree. With one, the cells and functional values bit for bit, the rest to its rounding.

    c_step is 2^q, within 9u of the reference's phi(2x) / phi(x) (3u per
    phi value, u for the quotient, 2u for pow). A step bound is
    c_step * (keep_fraction + weight_max / rho) + DEMO_TOL: c_step's 9u,
    record_error for each of weight_max and rho, and five roundings on
    either side (10u).
    """
    if q is None:
        assert trace_rows(trace) == rows
        assert trace.c_phi == c_phi
        return
    got = trace_rows(trace)
    assert [row[1:4] for row in got] == [row[1:4] for row in rows]
    for n, (mine, ref) in enumerate(zip(got, rows)):
        assert abs(mine[0] - ref[0]) <= record_error(n, q) * ref[0]
        assert abs(mine[4] - ref[4]) <= (2 * record_error(n, q) + 19 * U) * ref[4]
    assert trace.c_phi == 2.0**q
    assert abs(c_phi - trace.c_phi) <= 9 * U * c_phi


def kept_range(trace, size: int) -> tuple[int, int]:
    """The last round's range [lo, hi), rebuilt from the prefix and support counts of an f0 without zeros."""
    lo, hi = 0, size
    for s in trace.steps[1:]:
        split = min(s.prefix_cells, hi)
        assert split - lo != hi - split, "both sides have the same cell count"
        lo, hi = (lo, split) if split - lo == s.support_cells else (split, hi)
        assert hi - lo == s.support_cells
    return lo, hi


class TestEvaluateFunctional:
    def test_plain_sum(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        U = AtomicFunctional(np.array([1.0, 1.0]), X, HALF)
        f = MeasurableFn(np.array([2.0, 3.0]), X)
        assert evaluate_functional(U, f) == 5.0

    def test_zero_coefficients(self):
        X = MeasureSpace.atomic([0.5, 0.5, 0.5])
        U = AtomicFunctional(np.zeros(3), X, HALF)
        f = MeasurableFn(np.array([4.0, -7.0, 1.0]), X)
        assert evaluate_functional(U, f) == 0.0

    def test_signed_sum(self):
        X = MeasureSpace.atomic([0.5, 0.25])
        U = AtomicFunctional(np.array([2.0, -1.0]), X, HALF)
        f = MeasurableFn(np.array([1.0, 4.0]), X)
        assert evaluate_functional(U, f) == -2.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        X = MeasureSpace.atomic(rng.uniform(0.2, 2.0, 5))
        U = AtomicFunctional(rng.uniform(-2, 2, 5), X, HALF)
        f = MeasurableFn(rng.uniform(-3, 3, 5), X)
        g = MeasurableFn(rng.uniform(-3, 3, 5), X)
        lhs = evaluate_functional(U, 2.0 * f + (-3.0) * g)
        rhs = 2.0 * evaluate_functional(U, f) - 3.0 * evaluate_functional(U, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


ATOMS = MeasureSpace.atomic([1.0, 2.0])
CELLS = MeasureSpace.interval(1.0, 8)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: AtomicFunctional(np.ones(8), CELLS, HALF), DomainError, "require an atomic space"),
        (lambda: AtomicFunctional(np.array([1.0, np.inf]), ATOMS, HALF), DomainError, "coefficients must be finite"),
        (lambda: AtomicFunctional(np.ones(3), ATOMS, HALF), DomainError, "3 coefficients for a space of size 2"),
        (
            lambda: evaluate_functional(
                AtomicFunctional(np.ones(2), ATOMS, HALF), MeasurableFn.constant(MeasureSpace.atomic([1.0, 3.0]), 1.0)
            ),
            DomainError,
            "the functional's space",
        ),
        (
            lambda: evaluate_functional(
                AtomicFunctional(np.full(2, 1e300), ATOMS, HALF), MeasurableFn.constant(ATOMS, 1e300)
            ),
            NonconvergenceError,
            "does not converge absolutely",
        ),
        (
            lambda: dual_zero_halving(HALF, CELLS, *halving_instance(HALF, MeasureSpace.interval(2.0, 8)), 1),
            DomainError,
            "f0 and kernel must live on the given space",
        ),
        (lambda: halving_instance(HALF, ATOMS), DomainError, "non-atomic model"),
        (lambda: dual_zero_halving(HALF, CELLS, *halving_instance(HALF, CELLS), 0), DomainError, "iterations"),
        (lambda: dual_zero_halving(HALF, CELLS, *halving_instance(HALF, CELLS), -1), DomainError, "iterations"),
        # with rho_0 = 0 there is no decay to show, and the modular ratio is 0/0
        (
            lambda: dual_zero_halving(
                HALF, CELLS, MeasurableFn.constant(CELLS, 0.0), MeasurableFn.constant(CELLS, 1.0), 3
            ),
            DomainError,
            "f0 has modular 0",
        ),
    ],
    ids=[
        "functional-on-interval",
        "inf-coefficient",
        "coefficient-count",
        "evaluate-on-other-space",
        "evaluate-not-convergent",
        "halving-f0-on-other-space",
        "halving-instance-on-atoms",
        "halving-zero-iterations",
        "halving-negative-iterations",
        "halving-f0-without-modular",
    ],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestNormFormula:
    def test_single_atom(self):
        X = MeasureSpace.atomic([0.25])
        U = AtomicFunctional(np.array([1.0]), X, HALF)
        # phi^{-1}(4) = 16 for the square-root generator
        assert functional_norm_formula(U) == 16.0

    def test_zero(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        U = AtomicFunctional(np.zeros(2), X, HALF)
        assert functional_norm_formula(U) == 0.0

    def test_unit_masses_max_coefficient(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        U = AtomicFunctional(np.array([3.0, 5.0]), X, HALF)
        assert functional_norm_formula(U) == 5.0


class TestBruteforce:
    def test_single_atom_exact(self):
        X = MeasureSpace.atomic([0.25])
        U = AtomicFunctional(np.array([1.0]), X, HALF)
        assert operator_norm_bruteforce(U, seed=0) == 16.0

    def test_single_nonzero_coefficient(self):
        X = MeasureSpace.atomic([1.0, 0.5, 2.0])
        U = AtomicFunctional(np.array([0.0, -3.0, 0.0]), X, HALF)
        S = functional_norm_formula(U)
        assert operator_norm_bruteforce(U, seed=1) == pytest.approx(S, rel=1e-9)

    def test_three_atoms_inside_bracket(self):
        rng = np.random.default_rng(5)
        X = MeasureSpace.atomic(rng.uniform(0.2, 2.0, 3))
        U = AtomicFunctional(rng.uniform(-2, 2, 3), X, HALF)
        S = functional_norm_formula(U)
        cert = delta2_solve(HALF, 8.0, np.geomspace(1e-3, 1e3, 25))
        brute = operator_norm_bruteforce(U, seed=7)
        assert S * (1 - 1e-6) <= brute <= cert.bound_constant * S * (1 + 1e-6)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        X = MeasureSpace.atomic(rng.uniform(0.2, 2.0, 4))
        U = AtomicFunctional(rng.uniform(-2, 2, 4), X, HALF)
        assert operator_norm_bruteforce(U, seed=42) == operator_norm_bruteforce(U, seed=42)

    @pytest.mark.parametrize("m", [9, 64])
    def test_many_atoms_return_s(self, m):
        # the cost is linear in the atom count, so there is no atom cap
        rng = np.random.default_rng(m)
        X = MeasureSpace.atomic(rng.uniform(0.2, 2.0, m))
        U = AtomicFunctional(rng.uniform(-2, 2, m), X, HALF)
        assert operator_norm_bruteforce(U) == functional_norm_formula(U)

    @pytest.mark.parametrize("family", range(4), ids=["power", "power_scaled", "alpha_exp", "log_sqrt"])
    def test_equals_formula_bit_for_bit(self, family):
        # several effective atoms: the unit-ball pass stays below S, so S
        # itself comes back
        rng = np.random.default_rng(2024 + family)
        for m in range(2, 9):
            shape = float(rng.uniform(0.2, 0.8)) if family < 2 else float(rng.uniform(1.5, 4.0))
            phi = CLOSED_FAMILIES[family](shape)
            X = MeasureSpace.atomic(rng.uniform(0.2, 3.0, m))
            U = AtomicFunctional(rng.uniform(-2, 2, m), X, phi)
            assert operator_norm_bruteforce(U, seed=m) == functional_norm_formula(U)

    def test_zero_coefficient_on_a_tiny_atom(self):
        # phi^{-1}(1 / 1e-200) overflows; the zero coefficient must add 0, not 0 * inf = NaN
        X = MeasureSpace.atomic([1e-200, 0.5])
        U = AtomicFunctional(np.array([0.0, 1.0]), X, HALF)
        assert functional_norm_formula(U) == 4.0
        assert operator_norm_bruteforce(U) == pytest.approx(4.0, rel=1e-9)

    def test_overflowing_norm_raises(self):
        X = MeasureSpace.atomic([1e-200, 0.5])
        U = AtomicFunctional(np.array([1.0, 1.0]), X, HALF)
        assert functional_norm_formula(U) == np.inf
        with pytest.raises(NonconvergenceError, match="overflows"):
            operator_norm_bruteforce(U)


# the quasi-norm stops on |rho - 1| <= 1e-10, which bounds lambda only to
# about 1e-10 / q, q = d log phi / d log x the local exponent of phi. The
# draws keep q >= 0.2, so ||f|| is within 5e-10 of exact: power exponents
# in [0.2, 0.9], alpha in [1.1, 5], and atom masses of at least 1 for
# log_sqrt, whose q = x / (2 (1 + x) log(1 + x)) falls towards 0 as x
# grows; those masses keep |f_i| / ||f|| <= phi^{-1}(1) = e - 1, where
# q > 0.29. Each family comes with the lowest log10 mass it is drawn with.
_FAMILY = st.one_of(
    st.floats(0.2, 0.9).map(lambda p: (power_family(p), -3.0)),
    st.floats(0.2, 0.9).map(lambda p: (scaled_power_family(p), -3.0)),
    st.floats(1.1, 5.0).map(lambda alpha: (alpha_exp_family(alpha), -3.0)),
    st.just((log_sqrt_family(), 0.0)),
)


@st.composite
def _functional_and_point(draw):
    phi, low_log_mass = draw(_FAMILY)
    m = draw(st.integers(1, 8))
    masses = draw(st.lists(st.floats(low_log_mass, 3.0), min_size=m, max_size=m))
    coeffs = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))
    X = MeasureSpace.atomic(10.0 ** np.asarray(masses))
    return AtomicFunctional(np.asarray(coeffs), X, phi), MeasurableFn(np.asarray(values), X)


class TestNormIsS:
    @given(_functional_and_point())
    def test_s_bounds_every_point_and_witnesses_attain_it(self, case):
        U, f = case
        S = functional_norm_formula(U)
        norm = luxemburg_norm(U.phi, U.space, f).value
        assert abs(evaluate_functional(U, f)) <= S * norm * (1 + 1e-9)
        witnessed = max(abs(evaluate_functional(U, single_atom_witness(U, i))) for i in range(U.space.size))
        assert witnessed == S
        assert operator_norm_bruteforce(U) >= S


class TestWitnesses:
    def test_witness_norm_one_and_exact_value(self):
        rng = np.random.default_rng(11)
        X = MeasureSpace.atomic(rng.uniform(0.1, 3.0, 4))
        U = AtomicFunctional(rng.uniform(-2, 2, 4), X, HALF)
        inv = np.asarray(HALF.inverse(1.0 / X.masses))
        for i in range(4):
            w = single_atom_witness(U, i)
            assert luxemburg_norm(HALF, X, w).value == pytest.approx(1.0, abs=1e-9)
            assert evaluate_functional(U, w) == U.coefficients[i] * inv[i]


class TestDualZeroHalving:
    def test_twenty_step_decay(self):
        X = MeasureSpace.interval(1.0, 2**16)
        f0, u = halving_instance(HALF, X)
        trace = dual_zero_halving(HALF, X, f0, u, 20, 0.5)
        ratio = trace.steps[-1].modular / trace.steps[0].modular
        assert ratio <= 2.0**-10 * (1 + 1e-2)
        phi0 = abs(trace.steps[0].functional_value)
        assert all(abs(s.functional_value) >= phi0 - 1e-6 for s in trace.steps)
        assert trace.c_phi == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_zero_kernel_still_decays(self):
        X = MeasureSpace.interval(1.0, 4096)
        f0, _ = halving_instance(HALF, X)
        zero_kernel = MeasurableFn.constant(X, 0.0)
        trace = dual_zero_halving(HALF, X, f0, zero_kernel, 5, 0.5)
        assert all(s.functional_value == 0.0 for s in trace.steps)
        assert trace.steps[-1].modular < trace.steps[0].modular * (2.0**-0.5 * 1.02) ** 5

    def test_unscaled_nonzero_functional_rejected(self):
        X = MeasureSpace.interval(1.0, 4096)
        f0, u = halving_instance(HALF, X)
        with pytest.raises(DomainError):
            dual_zero_halving(HALF, X, f0, 0.01 * u, 5, 0.5)

    def test_smooth_instance_with_unit_kernel(self):
        X = MeasureSpace.interval(1.0, 2**14)
        x = X.midpoints()
        f0 = MeasurableFn(x * 12.0, X)  # phi(f0) = integral 12 x dx = 6 >= 1
        u = MeasurableFn.constant(X, 1.0)
        trace = dual_zero_halving(HALF, X, f0, u, 8, 0.5)
        ratios = trace.modulars[1:] / trace.modulars[:-1]
        assert np.all(ratios <= 2.0**-0.5 * 1.02)
        phi0 = abs(trace.steps[0].functional_value)
        assert all(abs(s.functional_value) >= phi0 - 1e-9 for s in trace.steps)

    def test_third_split_decays_slower(self):
        X = MeasureSpace.interval(1.0, 2**14)
        f0, u = halving_instance(HALF, X)
        trace = dual_zero_halving(HALF, X, f0, u, 10, theta=1.0 / 3.0)
        factor = np.sqrt(2.0) * (2.0 / 3.0)
        ratio = trace.steps[-1].modular / trace.steps[0].modular
        assert ratio <= factor**10 * 1.05
        # slower than the even split but still contracting
        assert factor**10 > 2.0**-5

    def test_atomic_space_rejected(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        f0 = MeasurableFn(np.array([2.0, 2.0]), X)
        u = MeasurableFn.constant(X, 1.0)
        with pytest.raises(DomainError, match="the halving construction needs the non-atomic model"):
            dual_zero_halving(HALF, X, f0, u, 3, 0.5)

    def test_decay_bound_curve_shape(self):
        X = MeasureSpace.interval(1.0, 2**12)
        f0, u = halving_instance(HALF, X)
        trace = dual_zero_halving(HALF, X, f0, u, 6, 0.5)
        bound = trace.decay_bound()
        assert bound[0] == trace.steps[0].modular
        assert np.all(np.diff(bound) < 0)
        log_rho = np.log(trace.modulars)
        slope = np.diff(log_rho)
        ref_slope = np.log(trace.c_phi * 0.5)
        assert np.all(slope <= ref_slope + 0.05)


# cell counts around the slice length of a blocked halving round
HALVING_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]


class TestHalvingAgainstReference:
    """dual_zero_halving records what a plain full-array loop computes: bit for bit without a degree."""

    @pytest.mark.parametrize("cells", [3000, *HALVING_SIZES])
    @pytest.mark.parametrize(
        "phi, theta",
        [
            (without_degree(power_family(0.5)), 0.5),
            (without_degree(power_family(0.25)), 0.5),
            (without_degree(alpha_exp_family(4.0)), 0.5),
            (log_sqrt_family(), 0.5),
            (without_degree(power_family(0.5)), 1.0 / 3.0),
            (log_sqrt_family(), 1.0 / 3.0),
            (without_degree(alpha_exp_family(4.0)), 0.8),
        ],
        ids=lambda v: v.description if isinstance(v, NStarFunction) else f"theta={v:.3g}",
    )
    def test_halving_instance_bit_for_bit(self, phi, theta, cells):
        X = MeasureSpace.interval(1.0, cells)
        f0, u = halving_instance(phi, X)
        trace = dual_zero_halving(phi, X, f0, u, 12, theta)
        rows, c_phi = reference_halving(phi, X, f0, u, 12, theta)
        assert trace_rows(trace) == rows
        assert trace.c_phi == c_phi

    @pytest.mark.parametrize("cells", [3000, *HALVING_SIZES, 6 * BLOCK + 77])
    @pytest.mark.parametrize(
        "phi, theta",
        [
            (power_family(0.5), 0.5),
            (power_family(0.25), 0.5),
            (alpha_exp_family(4.0), 0.5),
            (power_family(0.5), 1.0 / 3.0),
            (alpha_exp_family(4.0), 0.8),
            (power_family(0.25), 0.1),
        ],
        ids=lambda v: v.description if isinstance(v, NStarFunction) else f"theta={v:.3g}",
    )
    def test_declared_degree_against_reference(self, phi, theta, cells):
        X = MeasureSpace.interval(1.0, cells)
        f0, u = halving_instance(phi, X)
        trace = dual_zero_halving(phi, X, f0, u, 12, theta)
        assert_matches_reference(trace, *reference_halving(phi, X, f0, u, 12, theta), phi.degree)

    @pytest.mark.parametrize("q", [0.25, 0.5])
    def test_round_12_modular_matches_mpmath(self, q):
        # theta = 0.1 keeps the suffix, so round 12 still holds whole pieces read from the records
        X = MeasureSpace.interval(1.0, 2 * BLOCK + 5)
        phi = power_family(q)
        f0, u = halving_instance(phi, X)
        trace = dual_zero_halving(phi, X, f0, u, 12, 0.1)
        lo, hi = kept_range(trace, X.size)
        assert lo < BLOCK
        want = mp_power_modular(X.masses[lo:hi], np.ldexp(f0.values[lo:hi], 12), 1.0, q)
        assert abs(trace.steps[12].modular - want) <= record_error(12, q) * want

    def test_scale_past_the_float_range(self):
        # f0 = 1e-300 doubles 1200 times without overflow while 2^(n q) passes
        # 2^1024 from round 1138 on; a zero kernel and theta near 1 keep whole
        # pieces in the range to the end. The float power 2.0 ** (n * q) raised OverflowError
        X = MeasureSpace.interval(1.0, 3 * BLOCK)
        f0, zero = MeasurableFn.constant(X, 1e-300), MeasurableFn.constant(X, 0.0)
        phi = power_family(0.9)
        trace = dual_zero_halving(phi, X, f0, zero, 1200, 0.9998)
        assert trace.steps[-1].support_cells > BLOCK
        assert_matches_reference(trace, *reference_halving(phi, X, f0, zero, 1200, 0.9998), phi.degree)

    @pytest.mark.parametrize("degree", [0.0, 1.5, np.inf, np.nan])
    def test_degree_outside_the_concave_range_takes_the_sweep(self, degree):
        X = MeasureSpace.interval(1.0, 2 * BLOCK + 5)
        f0, u = halving_instance(HALF, X)
        trace = dual_zero_halving(dataclasses.replace(HALF, degree=degree), X, f0, u, 12)
        assert trace_rows(trace) == reference_halving(HALF, X, f0, u, 12, 0.5)[0]

    def test_subnormal_weights_meet_a_true_degree(self):
        # the split of round 1 falls in the middle piece, whose weights
        # phi(1e-110) * 1e-310 are subnormal; the two routes' partials there
        # differ by far more than relative DEMO_TOL, and the check raised
        X = MeasureSpace.interval(3 * BLOCK * 1e-310, 3 * BLOCK)
        cell = np.arange(X.size)
        f0 = MeasurableFn(np.select([cell < BLOCK, cell < 2 * BLOCK], [0.0, 1e-110], 2e7), X)
        u = MeasurableFn(np.where(cell >= 2 * BLOCK, 1e300, 0.0), X)
        phi = power_family(0.1)
        trace = dual_zero_halving(phi, X, f0, u, 3, 1e-12)
        sweep = dual_zero_halving(without_degree(phi), X, f0, u, 3, 1e-12)
        assert trace.steps[1].prefix_cells == 12601
        assert [row[1:4] for row in trace_rows(trace)] == [row[1:4] for row in trace_rows(sweep)]

    def test_false_degree_raises(self):
        # log_sqrt is close to sqrt only near 0; trusting degree 0.5 printed a modular 0.4% off
        phi = dataclasses.replace(log_sqrt_family(), degree=0.5)
        X = MeasureSpace.interval(1.0, 65536)
        f0, u = halving_instance(log_sqrt_family(), X)
        for iterations in (1, 2, 20):
            with pytest.raises(NonconvergenceError, match="does not scale as its declared degree 0.5"):
                dual_zero_halving(phi, X, f0, u, iterations)

    @pytest.mark.parametrize(
        "phi, cells, cell",
        [
            (dataclasses.replace(log_sqrt_family(), degree=0.5), 1000, 0),
            (dataclasses.replace(power_family(0.5), degree=0.49), 1000, 0),
            (dataclasses.replace(alpha_exp_family(4.0), degree=0.015), 1000, 0),
            # cell 0 sits at level e^-(8 / N), where the two laws agree within DEMO_TOL
            (dataclasses.replace(power_family(0.5), degree=0.500001), 2**20, 2**20 - 1),
        ],
        ids=["log_sqrt-0.5", "power-0.49", "alpha_exp-0.015", "power-0.500001"],
    )
    def test_false_degree_raises_in_f0(self, phi, cells, cell):
        # f0 of the claimed law misses phi^-1(e^(-16 x / L)) on the first cell or the last cell of normal f0
        X = MeasureSpace.interval(1.0, cells)
        with pytest.raises(NonconvergenceError, match=f"f0: phi does not scale as its declared degree .* on cell {cell}$"):
            halving_f0(phi, X)

    def test_a_rate_past_the_float_range_takes_phi_inverse(self):
        # -16 / (L q) = -3.2e308 passes the float range; the rate made every f0 0
        X = MeasureSpace.interval(1e-307, 1000)
        f0 = halving_f0(HALF, X)
        assert np.array_equal(f0.values, HALF.inverse(np.exp(-16.0 * X.midpoints() / X.length)))

    def test_true_degree_with_a_subnormal_tail(self):
        # e^(-16 x / 0.0216) is subnormal from cell 956 of 1000 on, and the
        # last cell's 2.9e-322 holds so few bits that phi of it is 1.7e-4 off
        # e^(-16 x); the claim is checked on the last normal cell instead
        f0 = halving_f0(power_family(0.0216), MeasureSpace.interval(1.0, 1000)).values
        assert 0.0 < f0[-1] < np.finfo(float).tiny

    @pytest.mark.parametrize("cells", [3000, *HALVING_SIZES])
    @pytest.mark.parametrize(
        "phi",
        [power_family(0.25), alpha_exp_family(4.0), log_sqrt_family()],
        ids=lambda phi: phi.description,
    )
    def test_instance_is_the_whole_array_formula(self, phi, cells):
        # f0 and the kernel are built a slice at a time; every step but the
        # kernel's scale is elementwise, and the scale follows the sum rule.
        # f0 of a declared degree takes the closed form, which
        # test_f0_of_a_degree_matches_mpmath checks
        X = MeasureSpace.interval(1.0, cells)
        f0, u = halving_instance(phi, X)
        f = f0.values
        if phi.degree is None:
            assert np.array_equal(f, phi.inverse(np.exp(-16.0 * X.midpoints() / X.length)))
        inverse = np.where(f > 0, 1.0 / f, 0.0)
        assert np.array_equal(u.values, inverse * (2.0 / rule_sum(f * inverse, X.masses)))

    @pytest.mark.parametrize(
        "space",
        [MeasureSpace.interval(1.0, c) for c in (3000, *HALVING_SIZES, 2**20 + 3)] + [MeasureSpace.interval(4.0, 9999)],
        ids=lambda X: f"L={X.length:g},N={X.size}",
    )
    @pytest.mark.parametrize(
        "phi",
        [power_family(q) for q in (0.25, 0.05)] + [scaled_power_family(0.3)] + [alpha_exp_family(a) for a in (4.0, 4 / 3)],
        ids=lambda phi: phi.description,
    )
    def test_f0_of_a_degree_matches_mpmath(self, phi, space):
        # f0 = phi^-1(1) e^(-16 x / (L q)) at the float midpoints x. The exponent,
        # at most 16/q, rounds twice (the rate 16 / (L q), its product with x;
        # L q is exact for L a power of two), so it lies within 2u * 16/q = 16/q
        # eps; exp, phi^-1(1), the product with it and the oracle's rounding
        # take 4 eps more
        idx = np.unique(np.linspace(0, space.size - 1, 400).astype(int))
        q = phi.degree
        want = mp_halving_f0(space.midpoints()[idx], space.length, phi(1.0), q)
        got = halving_f0(phi, space).values[idx]
        assert np.all(np.abs(got - want) <= (16 / q + 4) * 2.0**-52 * want)

    @pytest.mark.parametrize("cells", [2000, *HALVING_SIZES])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kernel", ["signed", "front"])
    @pytest.mark.parametrize("phi", [HALF, without_degree(HALF)], ids=lambda phi: phi.description)
    def test_zeros_and_other_kernels(self, phi, seed, kernel, cells):
        # interior zeros take the masked ratio path; a kernel that changes
        # sign, or one that lives on the first cells only, makes rounds keep
        # the prefix rather than the suffix
        rng = np.random.default_rng(seed)
        X = MeasureSpace.interval(1.0, cells)
        f0 = MeasurableFn(rng.uniform(0.0, 30.0, X.size) * (rng.uniform(size=X.size) < 0.7), X)
        if kernel == "signed":
            u = rng.uniform(-1.0, 3.0, X.size)
        else:
            u = np.where(np.arange(X.size) < 300, rng.uniform(0.5, 1.0, X.size), 0.0)
        u *= 4.0 / abs(float(np.dot(f0.values * u, X.masses)))
        u = MeasurableFn(u, X)
        for theta in (0.5, 0.3, 0.8):
            trace = dual_zero_halving(phi, X, f0, u, 10, theta)
            assert_matches_reference(trace, *reference_halving(phi, X, f0, u, 10, theta), phi.degree)

    def test_a_support_without_modular_puts_every_cell_in_the_prefix(self):
        # round 1 keeps the all-zero prefix of f0 (a tie at functional value
        # 0); from then on every cell, past the support too, fits under theta * 0
        X = MeasureSpace.interval(1.0, 64)
        f0 = MeasurableFn.indicator(X, 63, 64)
        zero = MeasurableFn.constant(X, 0.0)
        trace = dual_zero_halving(HALF, X, f0, zero, 3)
        assert trace_rows(trace) == reference_halving(HALF, X, f0, zero, 3, 0.5)[0]
        assert [s.prefix_cells for s in trace.steps] == [0, 63, 64, 64]


class TestDemoWork:
    """Solver work of the two demos, counted by a wrapper around phi."""

    @pytest.mark.parametrize("phi", [power_family(0.25), alpha_exp_family(4 / 3)], ids=lambda phi: phi.description)
    def test_f0_of_a_degree_inverts_phi_once_at_one(self, phi):
        # one scalar phi^-1(1), then an exp per cell; phi checks the claim on two cells
        X = MeasureSpace.interval(1.0, 2 * BLOCK + 5)
        inverted: list[object] = []

        def inverse_fn(y):
            inverted.append(np.asarray(y).copy())
            return phi.inverse_fn(y)

        counted, sizes = counting(dataclasses.replace(phi, inverse_fn=inverse_fn))
        halving_f0(counted, X)
        assert [(y.ndim, float(y)) for y in inverted] == [(0, 1.0)]
        assert sizes == [1, 1]

    def test_halving_without_degree_evaluates_phi_once_on_each_kept_cell(self):
        # f0 of halving_instance has no zeros, so the cells a round keeps are
        # its support cells; a pass calls phi once per piece of the grid, all
        # of BLOCK cells but the first and the last
        X = MeasureSpace.interval(1.0, 2 * BLOCK + 5)
        phi, sizes = counting(without_degree(HALF))
        f0, u = halving_instance(HALF, X)
        trace = dual_zero_halving(phi, X, f0, u, 9)
        assert max(sizes) <= BLOCK
        calls = iter(sizes)
        for step in trace.steps:
            sizes_of_pass = []
            while sum(sizes_of_pass) < step.support_cells:
                sizes_of_pass.append(next(calls))
            assert sum(sizes_of_pass) == step.support_cells
            assert all(size == BLOCK for size in sizes_of_pass[1:-1])
        assert next(calls, None) is None

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.8])
    def test_halving_with_degree_calls_phi_on_three_slices_a_round(self, theta):
        # round 0 passes phi once over every cell, a slice at a time; a later
        # round calls it on the split piece and on the two edges of its range
        X = MeasureSpace.interval(1.0, 6 * BLOCK + 77)
        phi, sizes = counting(HALF)
        f0, u = halving_instance(HALF, X)
        rounds = 12
        dual_zero_halving(phi, X, f0, u, rounds, theta)
        assert sizes[:7] == [BLOCK] * 6 + [77]
        assert max(sizes) <= BLOCK
        assert len(sizes) - 7 <= 3 * rounds

    @pytest.mark.parametrize("space", [MeasureSpace.interval(1.0, 2**16), MeasureSpace.atomic(np.full(500, 0.5))])
    def test_nonconvex_makes_no_phi_pass_over_the_cells(self, space):
        n = 32
        phi, sizes = counting(HALF)
        nonconvexity_demo(phi, space, 1.0, n)
        assert len(sizes) == n
        assert sum(sizes) == n * (n + 1) // 2
        assert max(sizes) == n


class TestDemoGuards:
    """Every DomainError guard of the two demos is reachable."""

    def test_halving_theta_outside_unit_interval(self):
        X = MeasureSpace.interval(1.0, 64)
        f0, u = halving_instance(HALF, X)
        for theta in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError, match="theta"):
                dual_zero_halving(HALF, X, f0, u, 2, theta)

    def test_halving_weights_past_the_float_range(self):
        # phi(100) * 5e307 overflows, so the modular weights are not finite
        X = MeasureSpace.interval(1e308, 2)
        zero = MeasurableFn.constant(X, 0.0)
        with pytest.raises(NonconvergenceError, match="modular weights must be non-negative and finite"):
            dual_zero_halving(HALF, X, MeasurableFn.constant(X, 100.0), zero, 1)

    def test_halving_doubling_past_the_float_range(self):
        X = MeasureSpace.interval(1.0, 2)
        zero = MeasurableFn.constant(X, 0.0)
        with pytest.raises(NonconvergenceError, match="doubling the kept piece overflows"):
            dual_zero_halving(HALF, X, MeasurableFn.constant(X, 1e308), zero, 1)

    def test_halving_doubling_past_the_float_range_in_a_later_slice(self):
        # a zero kernel ties every split, so round 1 keeps the prefix, which
        # runs past BLOCK into the cells of 1e308; only its second slice overflows
        X = MeasureSpace.interval(1.0, 2 * BLOCK + 5)
        f0 = MeasurableFn(np.where(np.arange(X.size) < BLOCK, 1.0, 1e308), X)
        zero = MeasurableFn.constant(X, 0.0)
        with pytest.raises(NonconvergenceError, match="step 1: doubling the kept piece overflows"):
            dual_zero_halving(HALF, X, f0, zero, 1)

    @pytest.mark.parametrize(
        "bad, past, match",
        [
            (-1.0, 200.0, "step 1: modular weights must be non-negative and finite"),
            (np.nan, 200.0, "step 1: modular weights must be non-negative and finite"),
            (-1.0, 60.0, "step 2: modular weights must be non-negative and finite"),
            # a NaN written in round 1 makes its own modular NaN
            (np.nan, 60.0, "step 1: the modular or functional value overflows"),
        ],
        ids=["negative-start", "nan-start", "negative-doubled", "nan-doubled"],
    )
    def test_halving_weights_broken_in_a_later_slice(self, bad, past, match):
        # phi turns bad above 100 on the cells past BLOCK only: at the start
        # (f0 = 200), or in round 1's pass (2 * 60)
        # a generator of no declared degree: the sweep checks the weights of every piece
        broken = dataclasses.replace(HALF, eval_fn=lambda a: np.where(a > 100.0, bad, np.sqrt(a)), degree=None)
        X = MeasureSpace.interval(1.0, 2 * BLOCK + 5)
        f0 = MeasurableFn(np.where(np.arange(X.size) < BLOCK, 1.0, past), X)
        zero = MeasurableFn.constant(X, 0.0)
        with pytest.raises(NonconvergenceError, match=match):
            dual_zero_halving(broken, X, f0, zero, 2)

    @pytest.mark.parametrize(
        "length, error, match",
        [
            (8.958978968711217e102, DomainError, "functional value is 0 or finite and at least 1"),
            (7.110746319746581e102, NonconvergenceError, "step 1: the modular or functional value overflows"),
        ],
        ids=["start", "doubled"],
    )
    def test_halving_functional_past_the_float_range(self, length, error, match):
        # f0 = u = x on one cell of mass L: the value L^3 / 4 is past the float range at the
        # start (the caller must rescale), or 8.9e307 at the start and doubled past it
        X = MeasureSpace.interval(length, 1)
        f = MeasurableFn.identity(X)
        with pytest.raises(error, match=match):
            dual_zero_halving(HALF, X, f, f, 1)

    # with a valid generator and DEMO_TOL >= 0 the construction cannot break
    # either bound; a negative DEMO_TOL tightens a bound past what it
    # guarantees. Both paths share these guards; HALF's degree would first
    # meet the check of phi against its degree, which reads DEMO_TOL too
    def test_halving_contraction_bound(self, monkeypatch):
        X = MeasureSpace.interval(1.0, 1024)
        f0, u = halving_instance(HALF, X)
        monkeypatch.setattr("nstar.dual.DEMO_TOL", -1.0)
        with pytest.raises(NonconvergenceError, match="violated its modular contraction bound"):
            dual_zero_halving(without_degree(HALF), X, f0, u, 3)

    def test_halving_functional_mass(self, monkeypatch):
        X = MeasureSpace.interval(1.0, 1024)
        f0, _ = halving_instance(HALF, X)
        zero = MeasurableFn.constant(X, 0.0)
        monkeypatch.setattr("nstar.dual.DEMO_TOL", -1e-300)
        with pytest.raises(NonconvergenceError, match="lost functional mass"):
            dual_zero_halving(without_degree(HALF), X, f0, zero, 3)

    @pytest.mark.parametrize(
        "p, cells",
        [(0.02, 1000), (0.01, 1)],
        ids=["kernel-overflows", "f0-underflows"],
    )
    def test_halving_instance_kernel_past_the_float_range(self, p, cells):
        # f0 = phi^-1(e^-16x) = e^(-16x/p): below p ~ 0.0226 some f0 lies under
        # 1/max-float and 1/f0 overflowed to inf; where every f0 underflows to 0
        # the kernel scale 2/0 raised ZeroDivisionError
        X = MeasureSpace.interval(1.0, cells)
        with pytest.raises(DomainError, match="kernel 1/f0 leaves the float range"):
            halving_instance(power_family(p), X)

    def test_nonconvex_epsilon_not_positive(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="epsilon"):
                nonconvexity_demo(HALF, X, eps, 2)

    def test_nonconvex_modular_below_epsilon(self):
        # phi(x) = x^2 is convex: averaging two bumps halves the modular
        square = NStarFunction(
            density=lambda t: 2.0 * np.asarray(t, float),
            eval_fn=lambda a: np.asarray(a, float) ** 2,
            inverse_fn=np.sqrt,
        )
        X = MeasureSpace.atomic([1.0, 1.0, 1.0])
        with pytest.raises(NonconvergenceError, match="dropped below epsilon at m=2"):
            nonconvexity_demo(square, X, 1.0, 3)

    @pytest.mark.parametrize(
        "masses, epsilon, message",
        [
            ([1.0, 1e-3, 1.0], 1.0, r"phi\^-1\(1000\) on piece 2 overflows the float range"),
            ([1e-320, 1.0], 1e10, r"phi\^-1\(inf\) on piece 1 overflows the float range"),
            ([1.0, 1e200], 1e-3, r"phi\^-1\(1e-203\) on piece 2 underflows to 0"),
        ],
        ids=["height", "level", "underflow"],
    )
    def test_nonconvex_height_outside_the_float_range(self, masses, epsilon, message):
        X = MeasureSpace.atomic(masses)
        with pytest.raises(DomainError, match=message):
            nonconvexity_demo(log_sqrt_family(), X, epsilon, len(masses))


class TestNonconvexityOracle:
    def test_log_sqrt_uneven_atoms(self):
        mpmath = pytest.importorskip("mpmath")
        masses = np.array([0.3, 1.7, 0.05, 2.2, 0.9, 0.11, 4.0, 0.6, 0.07, 1.3])
        X = MeasureSpace.atomic(masses)
        trace = nonconvexity_demo(log_sqrt_family(), X, 0.4, masses.size)
        np.testing.assert_allclose(trace.modulars, mp_bump_modulars(mpmath, masses, 0.4, masses.size), rtol=1e-13)

    def test_log_sqrt_interval_not_a_multiple_of_n(self):
        mpmath = pytest.importorskip("mpmath")
        # 1001 cells of width 3/1001 in 7 blocks of 143; no cell is left over
        # for 7, but 1000 cells in 7 blocks leave 6 cells out of every piece
        for cells in (1001, 1000):
            X = MeasureSpace.interval(3.0, cells)
            block = cells // 7
            mus = [block * mpmath.mpf(float(X.masses[0]))] * 7
            trace = nonconvexity_demo(log_sqrt_family(), X, 0.7, 7)
            want = mp_bump_modulars(mpmath, [float(mu) for mu in mus], 0.7, 7)
            np.testing.assert_allclose(trace.modulars, want, rtol=1e-13)


class TestNonconvexity:
    def test_power_family_square_root_growth(self):
        X = MeasureSpace.atomic(np.full(100, 1.0))
        trace = nonconvexity_demo(HALF, X, 1.0, 100)
        for n in (1, 4, 25, 100):
            assert trace.modulars[n - 1] == pytest.approx(np.sqrt(n), rel=1e-9)

    def test_single_piece_is_epsilon(self):
        X = MeasureSpace.atomic([0.7])
        trace = nonconvexity_demo(HALF, X, 2.5, 1)
        assert trace.modulars[0] == pytest.approx(2.5, rel=1e-12)

    def test_log_sqrt_lower_bound_and_monotone_growth(self):
        phi2 = log_sqrt_family()
        X = MeasureSpace.atomic(np.full(64, 0.5))
        trace = nonconvexity_demo(phi2, X, 1.0, 64)
        assert np.all(trace.modulars >= 1.0 - 1e-9)
        assert np.all(np.diff(trace.modulars) > -1e-9)

    def test_interval_blocks(self):
        X = MeasureSpace.interval(1.0, 1000)
        trace = nonconvexity_demo(HALF, X, 1.0, 10)
        assert trace.modulars[9] == pytest.approx(np.sqrt(10.0), rel=1e-9)

    def test_capacity_error_propagates(self):
        X = MeasureSpace.atomic([1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="cannot carve 4 disjoint pieces out of 3"):
            nonconvexity_demo(HALF, X, 1.0, 4)
