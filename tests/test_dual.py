import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nstar import (
    AtomicFunctional,
    CapacityError,
    DomainError,
    IndivisibleAtomsError,
    MeasurableFn,
    MeasureSpace,
    NotApplicableError,
    alpha_exp_family,
    atom_dual_witness,
    delta2_solve,
    dual_zero_halving,
    evaluate_functional,
    functional_norm_formula,
    halving_instance,
    log_sqrt_family,
    luxemburg_norm,
    nonconvexity_demo,
    operator_norm_bruteforce,
    power_family,
    scaled_power_family,
    single_atom_witness,
)

HALF = power_family(0.5)
CLOSED_FAMILIES = [power_family, scaled_power_family, alpha_exp_family, lambda _: log_sqrt_family()]


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
        with pytest.raises(DomainError, match="overflows"):
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
        with pytest.raises(IndivisibleAtomsError):
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
        with pytest.raises(CapacityError):
            nonconvexity_demo(HALF, X, 1.0, 4)


class TestAtomDualWitness:
    def test_reads_atom_value(self):
        X = MeasureSpace.atomic([1.0, 2.0])
        W = atom_dual_witness(X, 0, HALF)
        f = MeasurableFn(np.array([7.0, -1.0]), X)
        assert evaluate_functional(W, f) == 7.0

    def test_by_atom_id(self):
        X = MeasureSpace.atomic([1.0, 2.0])
        W = atom_dual_witness(X, "a1", HALF)
        f = MeasurableFn(np.array([7.0, -1.0]), X)
        assert evaluate_functional(W, f) == -1.0

    def test_linearity(self):
        rng = np.random.default_rng(13)
        X = MeasureSpace.atomic(rng.uniform(0.2, 2.0, 3))
        W = atom_dual_witness(X, 1, HALF)
        f = MeasurableFn(rng.uniform(-2, 2, 3), X)
        g = MeasurableFn(rng.uniform(-2, 2, 3), X)
        assert evaluate_functional(W, 2.0 * f + 3.0 * g) == pytest.approx(
            2.0 * evaluate_functional(W, f) + 3.0 * evaluate_functional(W, g), rel=1e-12
        )

    def test_boundedness_with_tightness(self):
        rng = np.random.default_rng(17)
        masses = rng.uniform(0.2, 2.0, 4)
        X = MeasureSpace.atomic(masses)
        W = atom_dual_witness(X, 2, HALF)
        cap = float(HALF.inverse(1.0 / masses[2]))
        for _ in range(40):
            f = MeasurableFn(rng.uniform(-3, 3, 4), X)
            norm = luxemburg_norm(HALF, X, f).value
            assert abs(evaluate_functional(W, f)) <= cap * norm * (1 + 1e-9)
        # tight when supported on the atom alone
        w = single_atom_witness(W, 2)
        assert abs(evaluate_functional(W, w)) == pytest.approx(cap, rel=1e-12)

    def test_no_atoms_rejected(self):
        X = MeasureSpace.interval(1.0, 16)
        with pytest.raises(NotApplicableError):
            atom_dual_witness(X, 0, HALF)
