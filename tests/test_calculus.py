import dataclasses
import math

import numpy as np
import pytest

from nstar import (
    DomainError,
    MeasurableFn,
    MeasureSpace,
    NStarFunction,
    NonconvergenceError,
    alpha_exp_family,
    complementary,
    delta2_solve,
    from_density,
    growth_factor,
    log_sqrt_family,
    luxemburg_norm,
    modular,
    power_family,
    scaled_power_family,
    tabulated_density_family,
    validate_nstar,
)
from nstar.numerics import LogLogLinear
from oracle import log_sqrt_complement_mp

SQRT2 = math.sqrt(2.0)
E_MINUS_1 = math.e - 1.0

ALL_FAMILIES = [
    power_family(0.25),
    power_family(0.5),
    power_family(0.75),
    scaled_power_family(0.25),
    scaled_power_family(0.5),
    scaled_power_family(0.75),
    alpha_exp_family(1.5),
    alpha_exp_family(3.0),
    log_sqrt_family(),
]


def legendre_sup_bruteforce(M, t: float, s_hi: float, n: int = 400001) -> float:
    """Independent conjugate oracle: max of s*t - M(s) over a fine grid."""
    s = np.linspace(0.0, s_hi, n)
    return float(np.max(t * s - np.asarray(M(s), dtype=float)))


_TABLE_T = np.geomspace(1e-3, 1e3, 7)
CONTRACT_GENERATORS = [
    power_family(0.5),
    scaled_power_family(0.3),
    alpha_exp_family(3.0),
    log_sqrt_family(),
    tabulated_density_family(_TABLE_T, 0.5 * _TABLE_T**-0.5, "tabulated"),
    from_density(lambda t: 0.5 * t**-0.5),
    complementary(power_family(0.5), use_registered=False),
    complementary(log_sqrt_family()),
]


class TestReturnContract:
    """A generator and its inverse return a float for a scalar and a float64 array of its shape otherwise."""

    @pytest.mark.parametrize("phi", CONTRACT_GENERATORS, ids=lambda f: f.description)
    @pytest.mark.parametrize("method", ["__call__", "inverse"])
    def test_scalar_and_array_types(self, phi, method):
        fn = getattr(phi, method)
        assert type(fn(0.7)) in (float, np.float64)
        for shape in ((3,), (2, 3)):
            out = fn(np.geomspace(0.1, 10.0, 6)[: np.prod(shape)].reshape(shape))
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.float64 and out.shape == shape

    @pytest.mark.parametrize("phi", CONTRACT_GENERATORS, ids=lambda f: f.description)
    def test_zero_at_zero_and_even(self, phi):
        xs = np.geomspace(0.1, 10.0, 6)
        assert phi(0.0) == 0
        assert np.array_equal(phi(-xs), phi(xs))


class TestEvalFromDensity:
    def test_inverse_sqrt_density(self):
        # p(t) = 1/sqrt(2 t) integrates to sqrt(2 x); at x=4 that is 2 sqrt(2)
        dens = lambda t: 1.0 / np.sqrt(2.0 * t)
        assert from_density(dens)(4.0) == pytest.approx(2.0 * SQRT2, rel=1e-10)
        # evenness
        assert from_density(dens)(-4.0) == pytest.approx(2.0 * SQRT2, rel=1e-10)

    def test_zero_argument(self):
        dens = lambda t: t**-0.9
        assert from_density(dens)(0.0) == 0.0

    def test_log_sqrt_density_at_e_minus_1(self):
        dens = lambda t: 1.0 / (2.0 * (t + 1.0) * np.sqrt(np.log1p(t)))
        assert from_density(dens)(E_MINUS_1) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_density_route_agrees_with_closed_form(self, phi):
        xs = np.geomspace(1e-6, 1e6, 25)
        got = np.asarray(from_density(phi.density)(xs))
        want = np.asarray(phi(xs))
        assert np.max(np.abs(got - want) / want) < 1e-8

    def test_nonintegrable_density_raises(self):
        dens = lambda t: 1.0 / np.asarray(t, float)
        with pytest.raises(NonconvergenceError, match="mass below the smallest normal float is not negligible"):
            from_density(dens)(1.0)

    def test_infinite_argument_rejected(self):
        dens = lambda t: np.asarray(t, float) ** -0.5
        with pytest.raises(DomainError):
            from_density(dens)(np.inf)


class TestInvert:
    def test_scaled_power_closed_inverse(self):
        phi = scaled_power_family(0.5)  # phi(t) = sqrt(2 t)
        assert phi.inverse(2.0 * SQRT2) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self):
        assert power_family(0.5).inverse(0.0) == 0.0

    def test_log_sqrt_inverse(self):
        assert log_sqrt_family().inverse(1.0) == pytest.approx(E_MINUS_1, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            power_family(0.5).inverse(-1.0)

    @pytest.mark.parametrize(
        "phi", [power_family(0.5), alpha_exp_family(4.0), log_sqrt_family()], ids=lambda f: f.description
    )
    def test_level_past_the_float_range_is_inf_without_warning(self, phi):
        # pytest turns a RuntimeWarning into an error
        assert float(phi.inverse(1e200)) == np.inf
        np.testing.assert_array_equal(np.asarray(phi.inverse(np.array([1e200, 0.0]))), [np.inf, 0.0])

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_invert_after_eval_is_identity(self, phi):
        xs = np.geomspace(1e-3, 1e3, 15)
        back = np.asarray(phi.inverse(np.asarray(phi(xs))))
        assert np.max(np.abs(back - xs) / xs) < 1e-10

    def test_numeric_inversion_without_closed_form(self):
        phi = scaled_power_family(0.5)
        numeric = NStarFunction(
            density=phi.density, eval_fn=phi.eval_fn, inverse_fn=None, description="no inverse"
        )
        ys = np.geomspace(1e-2, 1e3, 7)
        got = np.asarray(numeric.inverse(ys))
        want = np.asarray(phi.inverse(ys))
        assert np.max(np.abs(got - want) / want) < 1e-11


class TestConjugateNFunction:
    """The Young conjugate of the convex function phi^-1 is the inverse of the complement."""

    def test_half_square_is_self_conjugate(self):
        phi = scaled_power_family(0.5)  # phi^-1(s) = s^2 / 2
        conj = complementary(phi, use_registered=False).inverse
        ts = np.geomspace(0.01, 100.0, 9)
        want = 0.5 * ts**2
        got = np.asarray(conj(ts))
        assert np.max(np.abs(got - want) / want) < 1e-13
        # independent brute-force oracle at a few points
        for t in (0.5, 1.0, 3.0):
            oracle = legendre_sup_bruteforce(phi.inverse, t, s_hi=5.0 * t)
            assert float(conj(t)) == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_power_conjugate_closed_form(self, p):
        # phi^-1(s) = p s^(1/p) has conjugate (1-p) t^(1/(1-p))
        phi = scaled_power_family(p)
        ts = np.geomspace(1e-2, 1e2, 11)
        want = (1.0 - p) * ts ** (1.0 / (1.0 - p))
        registered = np.asarray(complementary(phi).inverse(ts))
        numeric = np.asarray(complementary(phi, use_registered=False).inverse(ts))
        assert np.max(np.abs(registered - want) / want) < 1e-12
        assert np.max(np.abs(numeric - want) / want) < 1e-12
        oracle = legendre_sup_bruteforce(phi.inverse, 2.0, s_hi=50.0)
        assert float(complementary(phi, use_registered=False).inverse(2.0)) == pytest.approx(
            oracle, rel=1e-6
        )

    def test_biconjugation_identity(self):
        phi = scaled_power_family(0.4)  # phi^-1(s) = 0.4 s^2.5
        twice = complementary(complementary(phi, use_registered=False), use_registered=False)
        ts = np.geomspace(0.1, 10.0, 7)
        want = 0.4 * ts**2.5
        assert np.max(np.abs(np.asarray(twice.inverse(ts)) - want) / want) < 1e-13

    def test_increasing_density_rejected(self):
        phi = from_density(lambda t: np.asarray(t, float) ** 0.5, description="bad")
        with pytest.raises(DomainError, match="complementation requires a non-negative, non-increasing density"):
            complementary(phi)


class TestComplementary:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_scaled_power_closed_form(self, p):
        phi = scaled_power_family(p)
        hat = complementary(phi, use_registered=False)
        grid = np.geomspace(1e-3, 1e3, 13)
        want = grid ** (1.0 - p) / (1.0 - p) ** (1.0 - p)
        got = np.asarray(hat(grid))
        assert np.max(np.abs(got - want) / want) < 1e-8

    def test_half_power_is_self_complementary(self):
        phi = scaled_power_family(0.5)  # sqrt(2 t)
        hat = complementary(phi)
        grid = np.geomspace(1e-2, 1e2, 9)
        assert np.max(np.abs(np.asarray(hat(grid)) - np.asarray(phi(grid)))) < 1e-10

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_double_complement_is_identity(self, p):
        phi = scaled_power_family(p)
        hat2 = complementary(complementary(phi, use_registered=False), use_registered=False)
        grid = np.geomspace(1e-2, 1e2, 9)
        want = np.asarray(phi(grid))
        assert np.max(np.abs(np.asarray(hat2(grid)) - want) / want) < 1e-6

    def test_unscaled_power_complement(self):
        p = 0.5
        phi = power_family(p)
        hat = complementary(phi, use_registered=False)
        grid = np.geomspace(1e-2, 1e2, 9)
        want = grid ** (1.0 - p) / ((1.0 - p) ** (1.0 - p) * p**p)
        assert np.max(np.abs(np.asarray(hat(grid)) - want) / want) < 1e-8

    def test_complement_passes_validation(self):
        hat = complementary(scaled_power_family(0.5), use_registered=False)
        report = validate_nstar(hat, np.geomspace(1e-6, 1e6, 17))
        assert report.passed, report.summary()

    def test_log_sqrt_complement_against_lambert_w_oracle(self):
        ys = np.geomspace(1e-4, 1e4, 9)
        want = np.array([log_sqrt_complement_mp(y, dps=30) for y in ys])
        got = np.asarray(complementary(log_sqrt_family())(ys))
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_log_sqrt_complement_across_the_float_range(self):
        # the conjugate table ended at 1e+-12: 4.3e-109 at 1e-300 against 2e-150
        ys = np.array([1e-300, 1e-100, 1e20, 1e100, 1e300])
        want = np.array([log_sqrt_complement_mp(y) for y in ys])
        got = np.asarray(complementary(log_sqrt_family())(ys))
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize(
        "phi",
        [
            power_family(0.25),
            power_family(0.5),
            scaled_power_family(0.75),
            alpha_exp_family(4.0 / 3.0),
            alpha_exp_family(4.0),
        ],
        ids=lambda f: f.description,
    )
    def test_closed_families_across_the_float_range(self, phi):
        # exponents that are binary fractions: with any other p the closed
        # complement's own x^(1-p) carries the rounding of 1-p, ~4e-14 at 1e300
        xs = np.geomspace(1e-300, 1e300, 61)
        want = phi.registered_complementary()
        hat = complementary(phi, use_registered=False)
        assert np.max(np.abs(np.asarray(hat(xs)) / want(xs) - 1.0)) <= 1e-14
        assert np.max(np.abs(np.asarray(hat.density(xs)) / want.density(xs) - 1.0)) <= 1e-14

    def test_complement_of_the_complement_is_phi(self):
        phi = log_sqrt_family()
        hat = complementary(phi, use_registered=False)
        assert hat.source_nfunction is phi
        assert complementary(hat) is phi

    def test_double_complement_without_the_shortcut(self):
        phi = log_sqrt_family()
        twice = complementary(complementary(phi, use_registered=False), use_registered=False)
        xs = np.geomspace(1e-6, 1e6, 13)
        assert np.max(np.abs(np.asarray(twice(xs)) / phi(xs) - 1.0)) <= 1e-13

    def test_flat_low_edge_keeps_zero_at_zero(self):
        # p(0) = 1 is finite, so 1/p at the root of G(x) = 0 would give 1
        hat = complementary(tabulated_density_family([1.0, 2.0, 3.0], [1.0, 1.0, 0.5]))
        assert hat(0.0) == 0.0
        np.testing.assert_array_equal(hat(np.array([0.0, -0.0])), [0.0, 0.0])
        assert hat(1e-3) > 0.0

    def test_source_density_is_never_read_at_zero(self):
        # 0.5 * 0.0**-0.5 raises ZeroDivisionError on a Python float
        hat = complementary(from_density(lambda t: 0.5 * t**-0.5))
        assert hat(0.0) == 0.0
        assert hat.inverse(0.0) == 0.0
        xs = np.array([0.0, 1e-3, 1.0, 1e3])
        np.testing.assert_array_equal(hat(xs)[1:], [hat(x) for x in xs[1:]])
        assert validate_nstar(hat, np.geomspace(1e-8, 1e8, 33))["phi_zero_at_zero"].passed

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
    def test_tabulated_power_complement_closed_form(self, q):
        # the 1e240 probe of the conjugate's generalized inverse overran the
        # quadrature mesh, and phi^-1(s) underflowing to 0 read the density
        # there as 0, so m'(s) = 1/0 broke the bisection bracket
        ts = np.geomspace(1e-6, 1e6, 33)
        hat = complementary(tabulated_density_family(ts, q * ts ** (q - 1.0)))
        xs = np.geomspace(1e-3, 1e3, 13)
        want = xs ** (1.0 - q) / ((1.0 - q) ** (1.0 - q) * q**q)
        assert np.max(np.abs(np.asarray(hat(xs)) / want - 1.0)) <= 1e-12

    def test_tabulated_complement_inverse_at_extreme_levels(self):
        ts = np.geomspace(1e-6, 1e6, 33)
        tab = complementary(tabulated_density_family(ts, 0.25 * ts**-0.75))
        closed = complementary(power_family(0.25))
        ys = np.array([1e-100, 1e-80, 1e-3, 1e3, 1e40])
        np.testing.assert_allclose(tab.inverse(ys), closed.inverse(ys), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(tab.density(ys), closed.density(ys), rtol=1e-12, atol=0.0)

    def test_registered_complement_has_no_source(self):
        assert complementary(scaled_power_family(0.25)).source_nfunction is None


def arithmetic_bisection_ks(phi, k0, xs, steps=80):
    """Reference: the fixed 80-step arithmetic bisection of 2 phi(x) = phi(k x)."""
    twice = 2.0 * np.asarray(phi(xs), dtype=float)
    lo, hi = np.full(xs.shape, 2.0), np.full(xs.shape, k0)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = np.asarray(phi(mid * xs), dtype=float) <= twice
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestDelta2:
    @pytest.mark.parametrize(
        "phi",
        [power_family(0.25), power_family(0.5), scaled_power_family(0.3), alpha_exp_family(2.0)],
        ids=lambda phi: phi.description,
    )
    def test_matches_arithmetic_bisection_bit_for_bit(self, phi):
        xs = np.geomspace(1e-3, 1e3, 25)
        cert = delta2_solve(phi, 20.0, xs)
        np.testing.assert_array_equal(cert.ks, arithmetic_bisection_ks(phi, 20.0, xs))

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_power_global_constant(self, p):
        cert = delta2_solve(power_family(p), 20.0, np.geomspace(1e-3, 1e3, 50))
        assert cert.status == "exact_global"
        assert abs(cert.k_global - 2.0 ** (1.0 / p)) <= 1e-10

    def test_half_power_value(self):
        cert = delta2_solve(power_family(0.5), 8.0, np.geomspace(1e-3, 1e3, 50))
        assert cert.k_global == pytest.approx(4.0, abs=1e-10)
        assert cert.bound_constant == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize("points", [24, 25])
    def test_global_constant_is_the_median(self, points):
        # even and odd counts: the mean of the two middle ks, or the middle one
        cert = delta2_solve(scaled_power_family(0.3), 20.0, np.geomspace(1e-3, 1e3, points))
        assert cert.status == "exact_global"
        assert cert.k_global == float(np.median(cert.ks))

    def test_log_sqrt_per_x_only(self):
        grid = np.geomspace(1e-3, 1.0, 21)
        cert = delta2_solve(log_sqrt_family(), 20.0, grid)
        assert cert.status == "per_x_only"
        assert cert.k_global is None
        assert cert.bound_constant == 20.0
        # closed-form per-point solution of the doubling relation
        oracle = ((grid + 1.0) ** 4 - 1.0) / grid
        assert np.max(np.abs(cert.ks - oracle) / oracle) < 1e-10
        assert cert.k_min == pytest.approx(oracle[0], rel=1e-10)
        assert cert.k_max == pytest.approx(15.0, rel=1e-10)

    def test_hypothesis_failure_raises(self):
        with pytest.raises(NonconvergenceError, match=r"doubling hypothesis 2\*phi\(x\) <= phi\(k0\*x\) fails"):
            delta2_solve(power_family(0.5), 3.0, np.geomspace(1e-3, 1e3, 25))

    @pytest.mark.parametrize("k0", [1e300, 2.5])
    def test_overflowing_grid_raises_domain_error(self, k0):
        # k0 * x (and for the top point 2 * x) passes the float range; phi(inf)
        # used to read as a failed concavity check
        with pytest.raises(DomainError, match="overflows the float range"):
            delta2_solve(power_family(0.5), k0, np.geomspace(1e300, 1.7e308, 50))

    def test_convex_generator_rejected(self):
        # phi(2x) = 4 x^2 exceeds 2 phi(x) at every x
        square = NStarFunction(density=lambda t: 2.0 * t, eval_fn=np.square, inverse_fn=np.sqrt, description="x^2")
        with pytest.raises(NonconvergenceError, match="not a concave generator"):
            delta2_solve(square, 20.0, np.geomspace(1e-3, 1e3, 25))

    def test_every_k_in_range(self):
        cert = delta2_solve(alpha_exp_family(2.0), 20.0, np.geomspace(1e-2, 1e2, 25))
        assert np.all(cert.ks >= 2.0)
        assert np.all(cert.ks <= cert.k0)


# the closed families, a tiny exponent among them, and their closed complements
DEGREE_FAMILIES = [
    power_family(0.25),
    power_family(1e-9),
    scaled_power_family(0.3),
    alpha_exp_family(1.5),
    alpha_exp_family(3.0),
]
DEGREE_GENERATORS = DEGREE_FAMILIES + [complementary(phi) for phi in DEGREE_FAMILIES]


class TestDegree:
    """A declared degree q claims phi(t x) = t^q phi(x); the power families and their closed complements declare one."""

    @pytest.mark.parametrize("phi", DEGREE_GENERATORS, ids=lambda f: f.description)
    def test_declared_degree_is_homogeneous(self, phi):
        xs = np.geomspace(1e-100, 1e100, 41)
        for t in (1e-100, 0.5, 3.0, 1e100):
            # phi(t x) rounds t x, the power and the coefficient; t^q phi(x)
            # rounds t^q, the power, the coefficient and the product: with the
            # quotient, eleven roundings of at most u = eps / 2 each
            ratio = phi(t * xs) / (t**phi.degree * phi(xs))
            assert np.max(np.abs(ratio - 1.0)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("p", [0.25, 1e-9, 0.75])
    def test_power_and_complement_degrees(self, p):
        assert power_family(p).degree == p
        assert complementary(power_family(p)).degree == 1.0 - p
        assert alpha_exp_family(1.0 / p).degree == 1.0 / (1.0 / p)

    @pytest.mark.parametrize(
        "phi",
        [
            log_sqrt_family(),
            # every piece has slope -0.5: a power law, but declared by no one
            tabulated_density_family(_TABLE_T, 0.5 * _TABLE_T**-0.5, "tabulated"),
            from_density(lambda t: 0.5 * t**-0.5),
            complementary(power_family(0.5), use_registered=False),
            complementary(log_sqrt_family()),
        ],
        ids=lambda f: f.description,
    )
    def test_no_other_generator_declares_a_degree(self, phi):
        assert phi.degree is None


class TestGrowthFactor:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_power_growth(self, p):
        assert growth_factor(power_family(p)) == pytest.approx(2.0**p, abs=1e-10)

    def test_half_power_value(self):
        assert growth_factor(power_family(0.5)) == pytest.approx(SQRT2, abs=1e-10)

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_never_exceeds_two(self, phi):
        assert growth_factor(phi) <= 2.0 + 1e-10


def convex_on_1_10() -> NStarFunction:
    """sqrt(x) below 1 and 100 sqrt(x/10) above 10, joined by x^2: convex on [1, 10] only."""

    def eval_fn(a):
        a = np.asarray(a, float)
        return np.where(a <= 1.0, np.sqrt(a), np.where(a <= 10.0, a**2, 100.0 * np.sqrt(a / 10.0)))

    def inverse_fn(y):
        y = np.asarray(y, float)
        return np.where(y <= 1.0, y**2, np.where(y <= 100.0, np.sqrt(y), 10.0 * (y / 100.0) ** 2))

    def density(t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore"):
            return np.where(t <= 1.0, 0.5 / np.sqrt(t), np.where(t <= 10.0, 2.0 * t, 5.0 / np.sqrt(t / 10.0)))

    return NStarFunction(density=density, eval_fn=eval_fn, inverse_fn=inverse_fn, description="convex_on_1_10")


class TestValidate:
    def test_valid_family_passes(self):
        report = validate_nstar(scaled_power_family(0.5))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_all_registered_families_pass(self, phi):
        report = validate_nstar(phi)
        assert report.passed, report.summary()

    @pytest.mark.parametrize(
        "phi",
        [
            power_family(0.9),
            power_family(0.99),
            power_family(0.995),
            scaled_power_family(0.99),
            alpha_exp_family(1.01),
            complementary(log_sqrt_family()),
            complementary(power_family(0.3), use_registered=False),
            complementary(tabulated_density_family(np.geomspace(1e-6, 1e6, 33), np.geomspace(1e-6, 1e6, 33) ** -0.7)),
        ],
        ids=lambda f: f.description,
    )
    def test_slow_limits_pass_on_the_default_grid(self, phi):
        # hat(y)/y of the log_sqrt complement decays like 1/sqrt(log y), and
        # x^(p-1) with p near 1 needs more decades than 1e-8..1e8 for tenfold
        report = validate_nstar(phi)
        assert report.passed, report.summary()

    @pytest.mark.parametrize(
        "phi",
        [power_family(0.5), tabulated_density_family([1.0, 2.0], [1.0, 0.7])],
        ids=lambda f: f.description,
    )
    def test_grid_reaching_the_top_binade_passes(self, phi):
        # x1 + x2 overflows on most pairs here
        report = validate_nstar(phi, np.geomspace(1e200, 1.7e308, 50))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("seed", range(20))
    def test_convexity_on_one_decade_is_found(self, seed):
        assert not validate_nstar(convex_on_1_10(), seed=seed).passed

    def test_inverse_that_disagrees_with_eval_fails_round_trip(self):
        phi = power_family(0.5)
        off = dataclasses.replace(phi, inverse_fn=lambda y: 1.01 * np.asarray(y, float) ** 2)
        assert validate_nstar(phi)["inverse_round_trip"].passed
        report = validate_nstar(off)
        assert not report["inverse_round_trip"].passed
        assert report["inverse_round_trip"].residual == pytest.approx(1.01**0.5 - 1.0, rel=1e-9)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 2.0], [-1.0, 1.0], [1.0, np.inf], [1.0, np.nan], [1.0], [[1.0, 2.0]]])
    def test_malformed_grid_is_domain_error(self, grid):
        with pytest.raises(DomainError, match="sample grid"):
            validate_nstar(power_family(0.5), grid)

    def test_convex_square_fails_concavity_and_zero_limit(self):
        bad = NStarFunction(
            density=lambda t: 2.0 * np.asarray(t, float),
            eval_fn=lambda a: np.asarray(a, float) ** 2,
            inverse_fn=lambda y: np.sqrt(np.asarray(y, float)),
            description="square",
        )
        report = validate_nstar(bad)
        assert not report.passed
        assert not report["phi_midpoint_concave"].passed
        assert not report["phi_ratio_unbounded_at_zero"].passed

    def test_unreachable_level_is_a_failed_check(self):
        # x^1e-300 is 1 on every positive float, so no level above 1 is reached
        report = validate_nstar(power_family(1e-300))
        check = report["inverse_midpoint_convex"]
        assert not report.passed
        assert not check.passed
        assert "not invertible" in check.note

    def test_inverse_that_diverges_is_a_failed_check(self):
        # the density is inf above 1e60, so phi raises NonconvergenceError there;
        # the inverse's bracket growth reaches it, and validation reports it
        phi = from_density(lambda t: np.where(np.asarray(t) < 1e60, np.asarray(t, float) ** -0.5, np.inf))
        report = validate_nstar(phi, np.geomspace(1e-8, 1e40, 65))
        check = report["inverse_midpoint_convex"]
        assert not report.passed
        assert not check.passed
        assert check.note == "non-finite density value below the argument; integral diverges"

    def test_linear_fails_both_ratio_limits(self):
        linear = NStarFunction(
            density=lambda t: np.ones_like(np.asarray(t, float)),
            eval_fn=lambda a: np.asarray(a, float),
            inverse_fn=lambda y: np.asarray(y, float),
            description="linear",
        )
        report = validate_nstar(linear)
        assert not report.passed
        assert not report["phi_ratio_unbounded_at_zero"].passed
        assert not report["phi_ratio_vanishes_at_infinity"].passed
        # linearity itself is concave-compatible, so concavity must still pass
        assert report["phi_midpoint_concave"].passed

    def test_no_finite_density_sample_is_a_failed_check(self):
        # a table reaching 1e155 near 1e162 overflows its density on the whole grid
        phi = tabulated_density_family([4.2169650342858226e161, 4.216965034285822e162], [1e155, 1e154])
        report = validate_nstar(phi, np.geomspace(1e-8, 1e8, 33))
        for name in ("density_positive", "density_unbounded_at_zero", "density_vanishes_at_infinity"):
            assert not report[name].passed
        assert report["density_vanishes_at_infinity"].note == "no finite density sample"


class TestTabulatedFamily:
    def test_matches_sampled_power(self):
        ts = np.geomspace(1e-8, 1e8, 60)
        phi_ref = power_family(0.5)
        tab = tabulated_density_family(ts, np.asarray(phi_ref.density(ts)))
        xs = np.geomspace(1e-3, 1e3, 9)
        got = np.asarray(tab(xs))
        want = np.asarray(phi_ref(xs))
        assert np.max(np.abs(got - want) / want) < 1e-8

    # the numeric_cold benchmark shapes: (cells, exponent q) of a tabulated q t^(q-1)
    NUMERIC_COLD_SHAPES = [(1000, 0.25), (3000, 0.25), (3000, 1 / 3), (3000, 0.5), (3000, 0.75), (10000, 0.75)]

    @pytest.mark.parametrize("q", sorted({q for _, q in NUMERIC_COLD_SHAPES}))
    def test_agrees_with_quadrature_of_the_same_table(self, q):
        ts = np.geomspace(1e-6, 1e6, 33)
        xs = np.geomspace(1e-8, 1e8, 97)
        exact = tabulated_density_family(ts, q * ts ** (q - 1.0))
        quadrature = from_density(LogLogLinear(ts, q * ts ** (q - 1.0)))
        assert np.max(np.abs(np.asarray(exact(xs)) / np.asarray(quadrature(xs)) - 1.0)) <= 1e-8

    @pytest.mark.parametrize("n, q", NUMERIC_COLD_SHAPES)
    def test_norm_equals_the_quadrature_path(self, n, q):
        ts = np.geomspace(1e-6, 1e6, 33)
        X = MeasureSpace.interval(1.0, n)
        f = MeasurableFn(np.random.default_rng(n).uniform(0.0, 2.0, n), X)
        exact = tabulated_density_family(ts, q * ts ** (q - 1.0))
        quadrature = from_density(LogLogLinear(ts, q * ts ** (q - 1.0)))
        got, want = luxemburg_norm(exact, X, f), luxemburg_norm(quadrature, X, f)
        assert (got.value, got.iterations) == (want.value, want.iterations)
        assert modular(exact, X, f).value == pytest.approx(modular(quadrature, X, f).value, rel=1e-12)

    @pytest.mark.parametrize("ps", [[4.0, 1.0], [2.0, 1.0]], ids=["slope_-2", "slope_-1"])
    def test_rejects_a_low_edge_that_is_not_integrable(self, ps):
        with pytest.raises(DomainError, match="diverges at 0"):
            tabulated_density_family([1.0, 2.0], ps)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_argument_is_domain_error(self, bad):
        phi = tabulated_density_family(np.geomspace(1e-6, 1e6, 16), 0.5 * np.geomspace(1e-6, 1e6, 16) ** -0.5)
        with pytest.raises(DomainError):
            phi(bad)
        with pytest.raises(DomainError):
            phi(np.array([1.0, bad]))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_scaled_power_exponent_outside_the_unit_interval(self, p):
        with pytest.raises(DomainError, match="power exponent must lie in"):
            scaled_power_family(p)

    def test_rejects_increasing_samples(self):
        with pytest.raises(DomainError):
            tabulated_density_family([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "ts, ps",
        [
            ([0.0, 1.0], [2.0, 1.0]),
            ([1.0, 2.0], [1.0, 0.0]),
            ([1.0, np.nan], [2.0, 1.0]),
            ([1.0, 2.0], [np.inf, 1.0]),
            # distinct floats whose logs round to the same value
            ([1.0, 1e300, np.nextafter(1e300, np.inf)], [3.0, 2.0, 1.0]),
        ],
    )
    def test_rejects_bad_samples(self, ts, ps):
        with pytest.raises(DomainError):
            tabulated_density_family(ts, ps)


class TestPointwiseYoung:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_product_bounded_by_inverse_pair(self, p):
        # a*b <= M(a) + conj(M)(b) with M the generator inverse
        phi = scaled_power_family(p)
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 10.0, 500)
        b = rng.uniform(0.0, 10.0, 500)
        M = phi.inverse
        Mbar = complementary(phi).inverse
        slack = np.asarray(M(a)) + np.asarray(Mbar(b)) - a * b
        assert slack.min() >= -1e-9


class TestProductSandwichPointwise:
    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_alpha_between_product_and_twice(self, phi):
        hat = complementary(phi)
        alphas = np.geomspace(1e-4, 1e4, 33)
        prod = np.asarray(phi(alphas)) * np.asarray(hat(alphas))
        assert np.all(prod >= alphas * (1 - 1e-6))
        assert np.all(prod <= 2.0 * alphas * (1 + 1e-6))
