import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nstar.space
from nstar import (
    MeasurableFn,
    MeasureSpace,
    alpha_exp_family,
    complementary,
    convergence_equivalence,
    delta2_solve,
    dual_zero_halving,
    from_density,
    halving_instance,
    intersection_check,
    l1_embedding_bound_check,
    log_sqrt_family,
    luxemburg_norm,
    metric,
    modular,
    modular_to_norm_bound_check,
    power_family,
    product_identity_check,
    quasi_triangle_check,
    reversed_jensen_check,
    scaled_power_family,
    simple_approximation,
    tabulated_density_family,
    young_type_check,
)
from nstar.errors import DomainError, NonconvergenceError
from nstar.measure import BLOCK
from oracle import mp_power_norm, rule_sum

HALF = power_family(0.5)
HALF_SCALED = scaled_power_family(0.5)
UNIT = MeasureSpace.interval(1.0, 1000)


# the doubling constant of HALF that delta2_solve certifies, as the suite solves it
HALF_K = delta2_solve(HALF, 8.0, np.geomspace(1e-3, 1e3, 25)).bound_constant


def p_norm(f, p, space):
    return float(np.dot(np.abs(f.values) ** p, space.masses)) ** (1.0 / p)


class TestModular:
    def test_indicator(self):
        assert modular(HALF, UNIT, MeasurableFn.constant(UNIT, 1.0)).value == pytest.approx(
            1.0, rel=1e-12
        )

    def test_identity_integral(self):
        got = modular(HALF, UNIT, MeasurableFn.identity(UNIT)).value
        assert got == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_zero(self):
        result = modular(HALF, UNIT, MeasurableFn.constant(UNIT, 0.0))
        assert result.value == 0.0
        assert result.finite

    def test_large_values_stay_finite_for_sublinear_generators(self):
        X = MeasureSpace.atomic([1.0])
        f = MeasurableFn(np.array([np.finfo(float).max]), X)
        res = modular(HALF, X, f)
        assert res.finite

    def test_overflow_is_flag_not_fault(self):
        from nstar import NStarFunction

        # a synthetic evaluator that overflows (not a valid generator, but the
        # modular must report the overflow rather than raise)
        blowup = NStarFunction(
            density=lambda t: np.asarray(t, float) * 0 + 1.0,
            eval_fn=lambda a: np.exp(np.asarray(a, float)) * 1e300,
            description="overflowing",
        )
        X = MeasureSpace.atomic([1.0])
        f = MeasurableFn(np.array([1e4]), X)
        res = modular(blowup, X, f)
        assert not res.finite
        assert res.value == np.inf


class TestMetric:
    def test_self_distance_zero(self):
        f = MeasurableFn.identity(UNIT)
        assert metric(HALF, UNIT, f, f) == 0.0

    def test_indicator_vs_zero(self):
        f = MeasurableFn.constant(UNIT, 1.0)
        z = MeasurableFn.constant(UNIT, 0.0)
        assert metric(HALF, UNIT, f, z) == pytest.approx(1.0, rel=1e-12)

    def test_symmetry_and_triangle_random(self):
        rng = np.random.default_rng(11)
        X = MeasureSpace.atomic(rng.uniform(0.1, 1.0, 32))
        for _ in range(50):
            f = MeasurableFn(rng.uniform(-3, 3, 32), X)
            g = MeasurableFn(rng.uniform(-3, 3, 32), X)
            h = MeasurableFn(rng.uniform(-3, 3, 32), X)
            dfg = metric(HALF, X, f, g)
            assert dfg == pytest.approx(metric(HALF, X, g, f), rel=1e-12)
            assert dfg <= metric(HALF, X, f, h) + metric(HALF, X, h, g) + 1e-9

    @pytest.mark.parametrize("cells", [4, 2 * BLOCK + 5])
    def test_difference_past_the_float_range(self, cells):
        # f - g is formed a slice at a time; an overflow in the last slice still raises
        X = MeasureSpace.interval(1.0, cells)
        f = MeasurableFn(np.where(np.arange(cells) == cells - 1, 1e308, 0.0), X)
        with pytest.raises(DomainError, match="function values must be finite"):
            metric(HALF, X, f, -1.0 * f)

    def test_functions_on_another_space(self):
        f = MeasurableFn.constant(UNIT, 1.0)
        other = MeasurableFn.constant(MeasureSpace.interval(1.0, UNIT.size + 1), 1.0)
        for a, b in ((f, other), (other, f)):
            with pytest.raises(DomainError, match="functions must live on the given space"):
                metric(HALF, UNIT, a, b)


class TestLuxemburgNorm:
    def test_power_norm_identity_for_identity_fn(self):
        got = luxemburg_norm(HALF, UNIT, MeasurableFn.identity(UNIT)).value
        want = p_norm(MeasurableFn.identity(UNIT), 0.5, UNIT)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(4.0 / 9.0, abs=1e-4)

    def test_single_atom_closed_form(self):
        a, c = 0.25, 3.0
        X = MeasureSpace.atomic([a])
        f = MeasurableFn(np.array([c]), X)
        want = c / float(HALF.inverse(1.0 / a))
        assert luxemburg_norm(HALF, X, f).value == pytest.approx(want, rel=1e-9)

    def test_zero_function(self):
        result = luxemburg_norm(HALF, UNIT, MeasurableFn.constant(UNIT, 0.0))
        assert result.value == 0.0
        assert result.iterations == 0

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(2)
        X = MeasureSpace.atomic(rng.uniform(0.1, 2.0, 16))
        f = MeasurableFn(rng.uniform(-5, 5, 16), X)
        res = luxemburg_norm(HALF, X, f)
        assert res.lambda_residual <= 1e-10

    @staticmethod
    def counted_norm(mass, c, degree):
        """luxemburg_norm of c on one atom of this mass under HALF with this degree, and its count of phi calls."""
        calls = [0]

        def eval_fn(a):
            calls[0] += 1
            return HALF.eval_fn(a)

        X = MeasureSpace.atomic([mass])
        phi = dataclasses.replace(HALF, eval_fn=eval_fn, degree=degree)
        try:
            result = luxemburg_norm(phi, X, MeasurableFn(np.array([c]), X))
        except NonconvergenceError:
            result = None
        return result, calls[0]

    # without a degree the modular at the start max|f| = 1 is 4 (the bracket
    # grows up) and 1/4 (it grows down); with one, the pass at max|f| counts
    @pytest.mark.parametrize("degree", [None, 0.5])
    @pytest.mark.parametrize("mass, norm", [(4.0, 16.0), (0.25, 1.0 / 16.0)])
    def test_one_evaluation_per_iteration_and_one_at_the_start(self, mass, norm, degree):
        result, calls = self.counted_norm(mass, 1.0, degree)
        assert result.value == pytest.approx(norm, rel=1e-9)
        assert calls == result.iterations + 1

    # the norms 1e8 and 1e-8, 308 decades from max|f|, and two that over- and
    # underflow, where the closed-form start falls back to max|f|
    @pytest.mark.parametrize("degree", [None, 0.5])
    @pytest.mark.parametrize("mass, c", [(1e154, 1e-300), (1e-154, 1e300), (1e-300, 1e300), (1e300, 1e-300)])
    def test_evaluations_at_the_float_range_extremes(self, mass, c, degree):
        _, calls = self.counted_norm(mass, c, degree)
        assert calls <= 120

    def test_power_norm_makes_two_passes(self):
        # the pass at max|f| and the one at the closed-form root, each in slices of BLOCK cells
        sizes = []

        def eval_fn(a):
            sizes.append(np.size(a))
            return HALF.eval_fn(a)

        X = MeasureSpace.interval(1.0, 2**17)
        result = luxemburg_norm(dataclasses.replace(HALF, eval_fn=eval_fn), X, MeasurableFn.random(X, 4, -3.0, 3.0))
        assert result.iterations == 1
        assert len(sizes) == 2 * (2**17 // BLOCK)
        assert max(sizes) <= BLOCK

    def test_false_degree_costs_passes_not_correctness(self):
        # log_sqrt is not homogeneous: the closed-form start misses and the bracket takes over from it
        X = MeasureSpace.atomic([0.25, 1.0, 2.0])
        f = MeasurableFn(np.array([1.0, -2.0, 0.5]), X)
        honest = luxemburg_norm(log_sqrt_family(), X, f)
        claimed = luxemburg_norm(dataclasses.replace(log_sqrt_family(), degree=0.5), X, f)
        assert claimed.lambda_residual <= nstar.space.LUX_RESIDUAL_TOL
        assert claimed.iterations > 1
        # both residuals are within 1e-10, and log_sqrt's elasticity near this norm exceeds 0.1
        assert claimed.value == pytest.approx(honest.value, rel=2e-9)

    # (value.hex(), iterations) of generators that declare no degree, as the
    # solver gave them before it learnt the closed-form start: they stay bit-identical
    @pytest.mark.parametrize(
        "name, case, pinned",
        [
            ("log_sqrt", 0, ("0x1.1c6f60a42eadcp+3", 29)),
            ("log_sqrt", 1, ("0x1.d18ca56337d21p-3", 33)),
            ("log_sqrt", 2, ("0x1.c980879b46a14p+7", 33)),
            ("log_sqrt", 3, ("0x1.e06be66a954c9p-4", 35)),
            ("tabulated", 0, ("0x1.5d9f12d3678b6p+5", 33)),
            ("tabulated", 1, ("0x1.ab129d96ef1d2p-2", 33)),
            ("tabulated", 2, ("0x1.a3b5ee31311e5p+8", 32)),
            ("tabulated", 3, ("0x1.bfbc5ce4939b9p+1", 38)),
        ],
    )
    def test_norms_without_a_degree_are_pinned(self, name, case, pinned):
        X, make = PINNED_CASES[case]
        result = luxemburg_norm(BLOCKED_GENERATORS[name], X, make(X))
        assert (result.value.hex(), result.iterations) == pinned

    def test_homogeneity(self):
        rng = np.random.default_rng(21)
        X = MeasureSpace.atomic(rng.uniform(0.1, 2.0, 24))
        for p in (0.25, 0.5, 0.75):
            phi = power_family(p)
            for _ in range(25):
                f = MeasurableFn(rng.uniform(-4, 4, 24), X)
                alpha = float(rng.uniform(0.01, 100.0))
                lhs = luxemburg_norm(phi, X, alpha * f).value
                rhs = alpha * luxemburg_norm(phi, X, f).value
                assert abs(lhs - rhs) / rhs < 1e-9

    def test_unit_ball_characterization(self):
        rng = np.random.default_rng(31)
        X = MeasureSpace.atomic(rng.uniform(0.1, 2.0, 24))
        for _ in range(60):
            f = MeasurableFn(rng.uniform(-4, 4, 24), X)
            norm = luxemburg_norm(HALF, X, f).value
            rho = modular(HALF, X, f).value
            if norm <= 1.0 - 1e-9:
                assert rho <= 1.0 + 1e-8
            if rho <= 1.0 - 1e-9:
                assert norm <= 1.0 + 1e-8

    @pytest.mark.parametrize("c", [1e155, 1e-160])
    def test_constant_past_the_product_range(self, c):
        # sqrt(lo * hi) overflowed to inf at 1e155 and underflowed to 0 at 1e-160
        X = MeasureSpace.interval(1.0, 10)
        res = luxemburg_norm(HALF, X, MeasurableFn.constant(X, c))
        assert res.value == pytest.approx(c, rel=1e-9, abs=0.0)

    def test_overflowing_quotient_raises(self):
        # the norm is 1e-300, where f/lambda = 1e600 overflows: the bracket
        # closed on the overflow edge 5.6e-9 and returned it with exit 0
        from nstar import NonconvergenceError

        X = MeasureSpace.interval(1e-300, 3)
        with pytest.raises(NonconvergenceError, match="overflows"):
            luxemburg_norm(HALF, X, MeasurableFn.constant(X, 1e300))

    def test_underflowing_quotient_raises(self):
        # the norm is 1e300, where f/lambda = 1e-600 underflows: the bracket
        # closed on the jump near 4e23 with residual 2e138 and returned it
        from nstar import NonconvergenceError

        X = MeasureSpace.atomic([1e-300, 1e300])
        with pytest.raises(NonconvergenceError, match="underflows"):
            luxemburg_norm(HALF, X, MeasurableFn.constant(X, 1e-300))

    def test_a_fallback_start_keeps_the_bracket_search(self):
        # at p = 1e-20, x^p is 1 on every float, so the modular is the float
        # total mass 1 - 1.1e-16 at every lambda and the norm, 3 times that
        # mass to the power 1e20, is past the float range. The closed-form
        # root underflows and the start falls back to max|f| = 3, inside the
        # residual stop but no root: the bracket search finds no crossing
        X = MeasureSpace.interval(1.0, 10)
        with pytest.raises(NonconvergenceError, match="no lower bracket"):
            luxemburg_norm(power_family(1e-20), X, MeasurableFn.constant(X, 3.0))

    # the modular at the start max|f| is inside the residual stop: the float
    # total mass 1 - 1.1e-16, and exactly 1. Without a degree the solver
    # still brackets and bisects from there, and gives the bits and
    # iteration counts it gave before it learnt the closed-form start
    @pytest.mark.parametrize(
        "space, c, pinned",
        [
            (MeasureSpace.interval(1.0, 10), 3.0, ("0x1.7ffffffef5d4dp+1", 33)),
            (MeasureSpace.atomic([1.0]), 2.0, ("0x1.0000000000000p+1", 1)),
        ],
        ids=["total-mass-below-1", "total-mass-1"],
    )
    def test_a_start_inside_the_stop_without_a_degree_still_brackets(self, space, c, pinned):
        phi = dataclasses.replace(HALF, degree=None)
        result = luxemburg_norm(phi, space, MeasurableFn.constant(space, c))
        assert (result.value.hex(), result.iterations) == pinned

    @given(
        p=st.one_of(st.floats(0.01, 1.0, exclude_max=True), st.floats(-12.0, -2.0).map(lambda e: 10.0**e)),
        log_c=st.floats(-300.0, 300.0),
        n=st.integers(1, 64),
    )
    def test_constant_norm_across_the_float_range(self, p, log_c, n):
        c = 10.0**log_c
        X = MeasureSpace.interval(1.0, n)
        res = luxemburg_norm(power_family(p), X, MeasurableFn.constant(X, c))
        assert res.lambda_residual <= 1e-10
        want = mp_power_norm(X.masses, np.full(n, c), 1.0, p)
        assert abs(math.log(res.value / want)) <= res.log_error_bound
        if p >= 0.01:
            # the stopping rule puts the modular (c/lambda)^p within 1e-10 of 1,
            # so lambda is within 1e-10/p of c: 1e-9 for p >= 0.11, looser below
            assert abs(math.log(res.value / c)) <= max(1e-9, 1.1e-10 / p)

    @given(
        family=st.sampled_from(["power", "power_scaled", "alpha_exp"]),
        log_q=st.floats(-12.0, -0.001),
        log_ratios=st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=64),
        log_norm=st.floats(-200.0, 200.0),
        data=st.data(),
    )
    def test_power_norm_matches_the_mpmath_closed_form(self, family, log_q, log_ratios, log_norm, data):
        # values |f_i| = L r_i span 1e-290..1e290; the masses put the norm near L
        n = len(log_ratios)
        weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        q, alpha = 10.0**log_q, 10.0**-log_q
        # each coefficient as its family rounds it
        phi, c = {
            "power": lambda: (power_family(q), 1.0),
            "power_scaled": lambda: (scaled_power_family(q), q ** (-q)),
            "alpha_exp": lambda: (alpha_exp_family(alpha), alpha ** (1.0 / alpha)),
        }[family]()
        q = phi.degree
        assert phi(1.0) == c
        ratios = 10.0 ** np.array(log_ratios)
        X = MeasureSpace.atomic(weights / np.sum(weights * c * ratios**q))
        f = MeasurableFn(signs * 10.0**log_norm * ratios, X)
        res = luxemburg_norm(phi, X, f)
        want = mp_power_norm(X.masses, f.values, c, q)
        assert res.iterations == 1
        assert abs(math.log(res.value / want)) <= res.log_error_bound

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_matches_p_norm_on_random_functions(self, p):
        phi = power_family(p)
        rng = np.random.default_rng(7)
        X = MeasureSpace.atomic(rng.uniform(0.05, 2.0, 40))
        for _ in range(40):
            f = MeasurableFn(rng.uniform(-3, 3, 40), X)
            got = luxemburg_norm(phi, X, f).value
            assert got == pytest.approx(p_norm(f, p, X), rel=1e-8)

    def test_tiny_exponent_norm_matches_the_mpmath_value(self):
        # the residual stop alone printed 2.7510121296 with exit 0; the exact norm is 3.00000016653
        X = MeasureSpace.interval(1.0, 10)
        got = luxemburg_norm(power_family(1e-9), X, MeasurableFn.constant(X, 3.0)).value
        want = mp_power_norm(X.masses, np.full(10, 3.0), 1.0, 1e-9)
        assert abs(got - want) <= 1e-6 * want

    @pytest.mark.parametrize("p, bound", [(1e-9, 1.78e-6), (1e-12, 1.78e-3)])
    def test_the_root_carries_its_error_bound(self, p, bound):
        # gamma_16 / p in log lambda for 10 cells, and the exact norm lies inside it
        X = MeasureSpace.interval(1.0, 10)
        res = luxemburg_norm(power_family(p), X, MeasurableFn.constant(X, 3.0))
        assert res.log_error_bound == pytest.approx(bound, rel=1e-2)
        assert abs(math.log(res.value / mp_power_norm(X.masses, np.full(10, 3.0), 1.0, p))) <= res.log_error_bound

    @pytest.mark.parametrize("p", [1e-16, 1e-17])
    def test_a_root_uncertain_by_order_one_raises(self, p):
        # the root printed 0.988456408521 (p = 1e-16) and 4.52359715181e-05 (1e-17) with
        # exit 0, where the exact norms are 5.22640573042 and 772.6
        X = MeasureSpace.interval(1.0, 10)
        with pytest.raises(NonconvergenceError, match="reaches order 1"):
            luxemburg_norm(power_family(p), X, MeasurableFn.constant(X, 3.0))

    def test_no_error_bound_off_the_root(self):
        # without a degree, and for a false degree, whose root misses the residual stop
        X = MeasureSpace.interval(1.0, 10)
        f = MeasurableFn.identity(X)
        for phi in (log_sqrt_family(), dataclasses.replace(log_sqrt_family(), degree=0.5)):
            assert luxemburg_norm(phi, X, f).log_error_bound is None


_TABLE_T = np.geomspace(1e-3, 1e3, 50)
# one generator of each evaluation route: closed forms, a log-log table, the
# quadrature of a density, and the two numeric inversions of a complement
BLOCKED_GENERATORS = {
    "power": power_family(0.25),
    "power_scaled": scaled_power_family(0.5),
    "alpha_exp": alpha_exp_family(4.0 / 3.0),
    "log_sqrt": log_sqrt_family(),
    "tabulated": tabulated_density_family(_TABLE_T, 0.3 * _TABLE_T**-0.7),
    "from_density": from_density(lambda t: 0.5 * t**-0.5),
    "complement_log_sqrt": complementary(log_sqrt_family()),
    "complement_power_numeric": complementary(power_family(0.3), use_registered=False),
}
# spaces and functions of the pinned norms: atoms, a ramp, many cells across
# six decades of |f|, and atoms across four decades of mass
PINNED_CASES = [
    (MeasureSpace.atomic([0.25, 1.0, 2.0]), lambda X: MeasurableFn(np.array([1.0, -2.0, 0.5]), X)),
    (UNIT, MeasurableFn.identity),
    (MeasureSpace.interval(1.0, 20000), lambda X: MeasurableFn.random(X, 5, -1e3, 1e3)),
    (MeasureSpace.atomic(np.geomspace(1e-3, 10.0, 7)), lambda X: MeasurableFn.random(X, 9, -1e-3, 1e-3)),
]
# one slice short of a block, one block, one past it, and a ragged third slice
BLOCKED_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]


def unblocked_sum(g, masses, values):
    """The sum rule with g called once on the whole array |values|: the reference for a blocked pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        return rule_sum(g(np.abs(values)), masses)


def sparse_fn(n, seed):
    """Uniform(-3, 3) values on every 64th of n cells of [0, 64], zero elsewhere.

    The numeric generators evaluate only nonzero cells, so the passes stay
    cheap, and each slice of BLOCK cells still holds BLOCK/64 of them. The
    length gives them the mass of the unit interval, which keeps log_sqrt's
    norm inside the float range.
    """
    X = MeasureSpace.interval(64.0, n)
    values = np.zeros(n)
    values[::64] = np.random.default_rng(seed).uniform(-3.0, 3.0, values[::64].size)
    return MeasurableFn(values, X)


@pytest.mark.parametrize("n", BLOCKED_SIZES)
@pytest.mark.parametrize("name", list(BLOCKED_GENERATORS))
class TestBlockedPasses:
    """A pass over f's cells in slices of BLOCK gives the sum rule on whole arrays, bit for bit."""

    def test_modular_and_metric(self, name, n):
        phi = BLOCKED_GENERATORS[name]
        f, g = sparse_fn(n, 1), sparse_fn(n, 2)
        X = f.space
        assert modular(phi, X, f).value == rule_sum(phi(f.values), X.masses)
        assert metric(phi, X, f, g) == rule_sum(phi((f - g).values), X.masses)

    def test_norm_takes_the_unblocked_steps(self, name, n, monkeypatch):
        phi = BLOCKED_GENERATORS[name]
        f = sparse_fn(n, 3)
        blocked = luxemburg_norm(phi, f.space, f)
        monkeypatch.setattr(nstar.space, "weighted_sum", unblocked_sum)
        assert blocked == luxemburg_norm(phi, f.space, f)


def traced_peak(call) -> int:
    """The largest traced allocation while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# traced peak over f's byte size: a blocked pass holds slices of BLOCK cells
# only, where it held one full-size buffer (norm 1.25x, modular 1.19x) and a
# whole-array pass of the norm held four full-size temporaries; metric formed
# f - g as a full-size function first (2.19x)
@pytest.mark.parametrize("functional", [luxemburg_norm, modular, metric], ids=["norm", "modular", "metric"])
def test_pass_allocates_no_full_size_buffer(functional):
    X = MeasureSpace.interval(1.0, 2**18)
    f = MeasurableFn.random(X, 1, -3.0, 3.0)
    args = (f, MeasurableFn.random(X, 2, -3.0, 3.0)) if functional is metric else (f,)
    assert traced_peak(lambda: functional(power_family(0.25), X, *args)) / f.values.nbytes < 0.5


# without a degree the halving construction holds one full-size buffer,
# phi(|f|), and slices of BLOCK cells (1.17x); it held five (5.26x) when f,
# its modular weights, f * u and the prefix side of f * u were full-size too,
# and its whole-array rounds 7.99x. With a degree it keeps per-piece records
# of f0 instead of phi(|f|), and slices only (0.20x)
@pytest.mark.parametrize("degree, bound", [(None, 1.5), (0.25, 0.5)], ids=["no-degree", "degree"])
def test_halving_allocates_at_most_one_full_size_buffer(degree, bound):
    X = MeasureSpace.interval(1.0, 2**18)
    phi = power_family(0.25)
    f0, u = halving_instance(phi, X)
    phi = dataclasses.replace(phi, degree=degree)
    assert traced_peak(lambda: dual_zero_halving(phi, X, f0, u, 12)) / f0.values.nbytes < bound


# the instance is built a slice at a time and MeasurableFn adopts the fresh
# arrays of f0 and the kernel without a copy: 2.13x at 2^18 cells, the two
# arrays and slices of BLOCK cells. The bound adds four slices (4/32 of f's
# bytes). It peaked at 5.13x with full-size temporaries and at 3.13x while
# MeasurableFn copied each array
def test_halving_instance_builds_in_slices():
    X = MeasureSpace.interval(1.0, 2**18)
    assert traced_peak(lambda: halving_instance(power_family(0.25), X)) / (8 * X.size) < 2.25


# an arithmetic result is one fresh array that MeasurableFn keeps: 1.00x of
# f's bytes, where copying it peaked at 2.13x
@pytest.mark.parametrize("op", [lambda f: f + f, lambda f: f - f, lambda f: 2.0 * f], ids=["add", "sub", "mul"])
def test_arithmetic_allocates_one_full_size_buffer(op):
    X = MeasureSpace.interval(1.0, 2**18)
    f = MeasurableFn.random(X, 1, -3.0, 3.0)
    assert traced_peak(lambda: op(f)) / f.values.nbytes < 1.25


# simple_approximation builds its result in one buffer and takes sign(f) a
# slice at a time: the result plus one slice (1/32 of f's bytes). It peaked
# at 2.0x with full-size temporaries for |f|, the floor, the truncation and sign(f)
def test_simple_approximation_allocates_only_its_result():
    X = MeasureSpace.interval(1.0, 2**18)
    f = MeasurableFn.random(X, 1, -3.0, 3.0)
    assert traced_peak(lambda: simple_approximation(f, 10)) / f.values.nbytes < 1.05


class TestQuasiTriangle:
    def test_disjoint_indicators_ratio_two(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        f = MeasurableFn(np.array([1.0, 0.0]), X)
        g = MeasurableFn(np.array([0.0, 1.0]), X)
        rep = quasi_triangle_check(HALF, X, f, g, k=HALF_K)
        assert rep.data["ratio"] == pytest.approx(2.0, abs=1e-9)
        assert rep.passed
        assert any("fails" in note for note in rep.notes)

    def test_zero_pair_ratio_zero(self):
        X = MeasureSpace.atomic([1.0, 1.0])
        z = MeasurableFn.constant(X, 0.0)
        rep = quasi_triangle_check(HALF, X, z, z, k=HALF_K)
        assert rep.data["ratio"] == 0.0
        assert rep.passed

    def test_random_pairs_below_k(self):
        rng = np.random.default_rng(13)
        X = MeasureSpace.atomic(rng.uniform(0.1, 1.0, 16))
        worst = 0.0
        for _ in range(60):
            f = MeasurableFn(rng.uniform(-2, 2, 16), X)
            g = MeasurableFn(rng.uniform(-2, 2, 16), X)
            rep = quasi_triangle_check(HALF, X, f, g, k=HALF_K)
            assert rep.passed
            worst = max(worst, rep.data["ratio"])
        # the sharp power bound 2^((1-p)/p) = 2 also holds
        assert worst <= 2.0 + 1e-9


class TestYoungType:
    def test_equality_case_half_scaled(self):
        chi = MeasurableFn.constant(UNIT, 1.0)
        rep = young_type_check(HALF_SCALED, UNIT, chi, chi)
        assert rep.data["left"] == pytest.approx(2.0, rel=1e-12)
        assert rep.data["right"] == pytest.approx(2.0, rel=1e-12)
        assert abs(rep.slack_min) <= 1e-9

    def test_zero_f(self):
        z = MeasurableFn.constant(UNIT, 0.0)
        g = MeasurableFn.constant(UNIT, 2.0)
        rep = young_type_check(HALF_SCALED, UNIT, z, g)
        assert rep.data["left"] == 0.0
        assert rep.passed

    def test_random_pairs_nonnegative_slack(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            size = int(rng.integers(2, 24))
            X = MeasureSpace.atomic(rng.uniform(0.05, 1.5, size))
            p = float(rng.choice([0.25, 0.5, 0.75]))
            phi = scaled_power_family(p)
            f = MeasurableFn(rng.uniform(-3, 3, size), X)
            g = MeasurableFn(rng.uniform(-3, 3, size), X)
            rep = young_type_check(phi, X, f, g)
            assert rep.slack_min >= -1e-9


class TestReversedJensen:
    def test_identity_closed_forms(self):
        rep = reversed_jensen_check(HALF, UNIT, MeasurableFn.identity(UNIT))
        assert rep.data["phi_of_mean"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)
        assert rep.data["mean_modular"] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert rep.passed

    def test_constant_is_equality(self):
        rep = reversed_jensen_check(HALF, UNIT, MeasurableFn.constant(UNIT, 3.0))
        assert abs(rep.slack_min) <= 1e-12

    def test_random_functions(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            size = int(rng.integers(2, 32))
            X = MeasureSpace.atomic(rng.uniform(0.05, 2.0, size))
            f = MeasurableFn(rng.uniform(-4, 4, size), X)
            assert reversed_jensen_check(HALF, X, f).slack_min >= -1e-9


class TestL1Embedding:
    def test_identity_bound(self):
        rep = l1_embedding_bound_check(HALF, UNIT, MeasurableFn.identity(UNIT))
        assert rep.data["bound"] == pytest.approx(0.5, rel=1e-9)
        assert rep.data["norm"] == pytest.approx(4.0 / 9.0, abs=1e-4)
        assert rep.passed

    def test_constant_on_unit_mass_is_tight(self):
        X = MeasureSpace.atomic([1.0])
        f = MeasurableFn(np.array([3.0]), X)
        rep = l1_embedding_bound_check(HALF, X, f)
        assert rep.slack_min == pytest.approx(0.0, abs=1e-9)

    def test_bound_past_the_float_range_holds(self):
        # mu * phi^-1(1/mu) = 1e300 * 1e-600 underflows to 0: the bound is
        # inf, not a ZeroDivisionError, while the norm of f on the unit atom is 3
        X = MeasureSpace.atomic([1.0, 1e300])
        f = MeasurableFn(np.array([3.0, 0.0]), X)
        rep = l1_embedding_bound_check(HALF, X, f)
        assert rep.data["bound"] == rep.slack_min == np.inf
        assert rep.data["norm"] == pytest.approx(3.0, rel=1e-9)
        assert rep.passed

    def test_infinite_total_mass_is_a_domain_error(self):
        # the masses sum past the float range: mu * phi^-1(1/mu) was inf * 0 = NaN, a FAIL
        X = MeasureSpace.atomic([1e308, 1e308])
        with pytest.raises(DomainError):
            l1_embedding_bound_check(HALF, X, MeasurableFn.constant(X, 1.0))

    def test_random_functions(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            size = int(rng.integers(2, 24))
            X = MeasureSpace.atomic(rng.uniform(0.05, 2.0, size))
            p = float(rng.choice([0.25, 0.5, 0.75]))
            f = MeasurableFn(rng.uniform(-3, 3, size), X)
            assert l1_embedding_bound_check(power_family(p), X, f).slack_min >= -1e-9


class TestModularToNorm:
    def test_worked_instance(self):
        f = MeasurableFn.constant(UNIT, 9.0)  # modular = 3
        rep = modular_to_norm_bound_check(HALF, UNIT, f, 4.0, k=HALF_K)
        assert rep.data["n0"] == 3
        assert rep.data["bound"] == pytest.approx(64.0)
        assert rep.data["norm"] == pytest.approx(9.0, rel=1e-8)
        assert rep.passed

    def test_small_c_gives_n0_one(self):
        f = MeasurableFn.constant(UNIT, 0.25)  # modular = 0.5 < 1
        rep = modular_to_norm_bound_check(HALF, UNIT, f, 1.0, k=HALF_K)
        assert rep.data["n0"] == 1
        assert rep.data["bound"] == pytest.approx(4.0)

    @pytest.mark.parametrize("c", [1e300, np.inf])
    def test_bound_past_the_float_range_holds(self, c):
        # 4^997 overflowed (OverflowError), and floor(log2 inf) raised OverflowError
        f = MeasurableFn.constant(UNIT, 9.0)
        rep = modular_to_norm_bound_check(HALF, UNIT, f, c, k=4.0)
        assert rep.data["bound"] == np.inf
        assert rep.passed

    def test_precondition_failure_skips(self):
        f = MeasurableFn.constant(UNIT, 9.0)
        rep = modular_to_norm_bound_check(HALF, UNIT, f, 2.0, k=HALF_K)  # modular 3 >= 2
        assert rep.skipped
        assert rep.passed is None

    def test_random_instances(self):
        rng = np.random.default_rng(29)
        X = MeasureSpace.atomic(rng.uniform(0.1, 1.0, 12))
        for _ in range(60):
            f = MeasurableFn(rng.uniform(-6, 6, 12), X)
            c = modular(HALF, X, f).value * float(rng.uniform(1.05, 5.0)) + 1e-9
            rep = modular_to_norm_bound_check(HALF, X, f, c, k=HALF_K)
            assert rep.passed


class TestProductIdentity:
    def test_half_scaled_product_exact(self):
        alphas = np.geomspace(1e-3, 1e3, 17)
        hat = complementary(HALF_SCALED)
        prod = np.asarray(HALF_SCALED(alphas)) * np.asarray(hat(alphas))
        assert np.max(np.abs(prod - 2.0 * alphas) / alphas) < 1e-12

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_power_product_constant(self, p):
        phi = power_family(p)
        rep = product_identity_check(phi, np.geomspace(1e-3, 1e3, 21))
        assert rep.passed
        ratio = rep.data["product"] / rep.data["alphas"]
        want = 1.0 / (p**p * (1.0 - p) ** (1.0 - p))
        assert np.max(np.abs(ratio - want)) < 1e-9

    def test_additive_counterexample_detected_without_failing(self):
        rep = product_identity_check(HALF_SCALED, np.array([100.0]))
        assert rep.passed
        assert any("additive lower bound fails" in n for n in rep.notes)
        # the additive value really is 2*sqrt(200)
        assert float(rep.data["sum"][0]) == pytest.approx(2.0 * math.sqrt(200.0), rel=1e-12)


class TestIntersection:
    def test_indicator_reaches_upper_bound(self):
        chi = MeasurableFn.constant(UNIT, 1.0)
        rep = intersection_check(HALF_SCALED, UNIT, chi)
        assert rep.data["l1"] == pytest.approx(1.0, rel=1e-12)
        assert rep.data["product_integral"] == pytest.approx(2.0, rel=1e-12)
        assert rep.passed

    def test_zero_function(self):
        z = MeasurableFn.constant(UNIT, 0.0)
        rep = intersection_check(HALF_SCALED, UNIT, z)
        assert rep.data["l1"] == 0.0
        assert rep.passed

    def test_random_sandwich(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            size = int(rng.integers(2, 24))
            X = MeasureSpace.atomic(rng.uniform(0.05, 2.0, size))
            p = float(rng.choice([0.25, 0.5, 0.75]))
            f = MeasurableFn(rng.uniform(-3, 3, size), X)
            assert intersection_check(scaled_power_family(p), X, f).slack_min >= -1e-9

    def test_function_on_another_space_rejected(self):
        f = MeasurableFn.constant(MeasureSpace.interval(1.0, 8), 1.0)
        with pytest.raises(DomainError, match="function does not live on the given space"):
            intersection_check(HALF_SCALED, UNIT, f)

    def test_each_generator_evaluated_once(self):
        calls = {"phi": 0, "phi_hat": 0}

        def counted(phi, key):
            def eval_fn(a):
                calls[key] += 1
                return phi.eval_fn(a)

            return dataclasses.replace(phi, eval_fn=eval_fn)

        f = MeasurableFn.constant(UNIT, 1.0)
        phi_hat = counted(complementary(HALF_SCALED), "phi_hat")
        intersection_check(counted(HALF_SCALED, "phi"), UNIT, f, phi_hat=phi_hat)
        assert calls == {"phi": 1, "phi_hat": 1}


OTHER = MeasurableFn.constant(MeasureSpace.interval(1.0, 8), 1.0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: luxemburg_norm(HALF, UNIT, OTHER), DomainError, "does not live on the given space"),
        (lambda: young_type_check(HALF, UNIT, OTHER, OTHER), DomainError, "functions must live on the given space"),
        (lambda: product_identity_check(HALF, np.array([1.0, 0.0])), DomainError, "strictly positive arguments"),
    ],
    ids=["norm-on-other-space", "young-on-other-space", "alpha-zero"],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestConvergenceEquivalence:
    def test_simple_approximation_sequence_co_vanishes(self):
        rng = np.random.default_rng(41)
        X = MeasureSpace.interval(1.0, 256)
        f = MeasurableFn(rng.uniform(0.0, 1.0, 256), X)
        seq = [simple_approximation(f, n) for n in range(1, 21)]
        rep = convergence_equivalence(HALF, X, seq, f)
        assert rep.verdict
        assert rep.metric_distances[-1] < 1e-3
        assert rep.norm_distances[-1] < 1e-3
        assert np.all(np.diff(rep.metric_distances) <= 1e-12)

    def test_constant_sequence_is_trivially_zero(self):
        f = MeasurableFn.identity(UNIT)
        rep = convergence_equivalence(HALF, UNIT, [f, f, f], f)
        assert rep.verdict
        assert np.all(rep.metric_distances == 0.0)
        assert np.all(rep.norm_distances == 0.0)

    def test_constant_offset_never_vanishes(self):
        X = MeasureSpace.interval(1.0, 64)
        f = MeasurableFn.identity(X)
        shifted = [f + MeasurableFn.constant(X, 1.0) for _ in range(5)]
        rep = convergence_equivalence(HALF, X, shifted, f)
        assert rep.verdict  # neither trajectory vanishes: verdicts agree
        assert rep.metric_distances[-1] > 0.9

    def test_cauchy_property_of_approximations(self):
        rng = np.random.default_rng(43)
        X = MeasureSpace.interval(1.0, 128)
        f = MeasurableFn(rng.uniform(0.0, 1.0, 128), X)
        approx = {n: simple_approximation(f, n) for n in range(1, 27)}
        sups = []
        for n in range(1, 23):
            sups.append(max(metric(HALF, X, approx[n], approx[m]) for m in range(n + 1, 27)))
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-3

    def test_l1_convergence_implies_metric_convergence(self):
        rng = np.random.default_rng(47)
        X = MeasureSpace.interval(1.0, 128)
        f = MeasurableFn(rng.uniform(0.0, 1.0, 128), X)
        perturbations = [
            f + MeasurableFn(rng.uniform(-1.0, 1.0, 128) * 4.0**-n, X) for n in range(1, 12)
        ]
        l1 = [np.dot(np.abs((g - f).values), X.masses) for g in perturbations]
        d = [metric(HALF, X, g, f) for g in perturbations]
        assert all(b < a for a, b in zip(l1, l1[1:]))
        assert d[-1] < 1e-2
        assert all(b <= a + 1e-12 for a, b in zip(d, d[1:]))
