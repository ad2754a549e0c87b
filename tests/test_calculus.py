import math

import numpy as np
import pytest

from nstar import (
    DomainError,
    NStarFunction,
    NotDelta2Error,
    alpha_exp_family,
    complementary,
    conjugate_nfunction,
    delta2_solve,
    from_density,
    growth_factor,
    invert,
    log_sqrt_family,
    power_family,
    power_nfunction,
    scaled_power_family,
    tabulated_density_family,
    validate_nstar,
)
from nstar.calculus import inverse_as_nfunction
from nstar.errors import InvalidDensityError

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
        from nstar import DivergedIntegralError

        dens = lambda t: 1.0 / np.asarray(t, float)
        with pytest.raises(DivergedIntegralError):
            from_density(dens)(1.0)

    def test_infinite_argument_rejected(self):
        dens = lambda t: np.asarray(t, float) ** -0.5
        with pytest.raises(DomainError):
            from_density(dens)(np.inf)


class TestInvert:
    def test_scaled_power_closed_inverse(self):
        phi = scaled_power_family(0.5)  # phi(t) = sqrt(2 t)
        assert invert(phi, 2.0 * SQRT2) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self):
        assert invert(power_family(0.5), 0.0) == 0.0

    def test_log_sqrt_inverse(self):
        assert invert(log_sqrt_family(), 1.0) == pytest.approx(E_MINUS_1, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            invert(power_family(0.5), -1.0)

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
    def test_half_square_is_self_conjugate(self):
        M = power_nfunction(0.5, 2.0)
        Mbar = conjugate_nfunction(M, use_registered=False)
        ts = np.geomspace(0.01, 100.0, 9)
        want = 0.5 * ts**2
        got = np.asarray(Mbar(ts))
        assert np.max(np.abs(got - want) / want) < 1e-9
        # independent brute-force oracle at a few points
        for t in (0.5, 1.0, 3.0):
            oracle = legendre_sup_bruteforce(M, t, s_hi=5.0 * t)
            assert float(Mbar(t)) == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_power_conjugate_closed_form(self, p):
        # M(t) = p t^(1/p) has conjugate (1-p) t^(1/(1-p))
        M = power_nfunction(p, 1.0 / p)
        ts = np.geomspace(1e-2, 1e2, 11)
        want = (1.0 - p) * ts ** (1.0 / (1.0 - p))
        registered = np.asarray(conjugate_nfunction(M)(ts))
        numeric = np.asarray(conjugate_nfunction(M, use_registered=False)(ts))
        assert np.max(np.abs(registered - want) / want) < 1e-12
        assert np.max(np.abs(numeric - want) / want) < 1e-9
        oracle = legendre_sup_bruteforce(M, 2.0, s_hi=50.0)
        assert float(conjugate_nfunction(M, use_registered=False)(2.0)) == pytest.approx(
            oracle, rel=1e-6
        )

    def test_biconjugation_identity(self):
        M = power_nfunction(0.4, 2.5)
        Mbb = conjugate_nfunction(
            conjugate_nfunction(M, use_registered=False), use_registered=False
        )
        ts = np.geomspace(0.1, 10.0, 7)
        want = 0.4 * ts**2.5
        assert np.max(np.abs(np.asarray(Mbb(ts)) - want) / want) < 1e-7

    def test_decreasing_density_rejected(self):
        M = NStarFunction(density=lambda s: 1.0 / (1.0 + np.asarray(s, float)), description="bad")
        with pytest.raises(InvalidDensityError):
            conjugate_nfunction(M)


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
        report = validate_nstar(hat, np.geomspace(1e-6, 1e6, 17), tol=1e-6)
        assert report.passed, report.summary()

    def test_log_sqrt_complement_against_lambert_w_oracle(self):
        # M(s) = expm1(s^2) inverts phi; its conjugate M*(t) = t s - M(s) at
        # M'(s) = 2 s exp(s^2) = t has 2 s^2 = W(t^2 / 2), and the complement
        # inverts M*. No quadrature, table or nstar code on this route.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30

        def conjugate(t):
            s = mp.sqrt(mp.lambertw(t * t / 2).real / 2)
            return t * s - mp.expm1(s * s)

        def complement(y):
            lo, hi = mp.mpf("1e-10"), mp.mpf("1e10")
            for _ in range(120):
                mid = mp.sqrt(lo * hi)
                lo, hi = (mid, hi) if conjugate(mid) < y else (lo, mid)
            return float(mp.sqrt(lo * hi))

        ys = np.geomspace(1e-4, 1e4, 9)
        want = np.array([complement(mp.mpf(y)) for y in ys])
        got = np.asarray(complementary(log_sqrt_family())(ys))
        assert np.max(np.abs(got - want) / want) <= 1e-9

    def test_numeric_complement_keeps_its_conjugate(self):
        hat = complementary(log_sqrt_family(), use_registered=False)
        assert hat.source_nfunction is not None
        # a second complement conjugates the same table instead of rebuilding it
        assert inverse_as_nfunction(hat) is hat.source_nfunction
        # the conjugate is evaluated through its integral, not through its own __call__
        assert hat.inverse_fn is hat.source_nfunction.eval_fn

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
        with pytest.raises(NotDelta2Error):
            delta2_solve(power_family(0.5), 3.0, np.geomspace(1e-3, 1e3, 25))

    def test_every_k_in_range(self):
        cert = delta2_solve(alpha_exp_family(2.0), 20.0, np.geomspace(1e-2, 1e2, 25))
        assert np.all(cert.ks >= 2.0)
        assert np.all(cert.ks <= cert.k0)


class TestGrowthFactor:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_power_growth(self, p):
        assert growth_factor(power_family(p)) == pytest.approx(2.0**p, abs=1e-10)

    def test_half_power_value(self):
        assert growth_factor(power_family(0.5)) == pytest.approx(SQRT2, abs=1e-10)

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_never_exceeds_two(self, phi):
        assert growth_factor(phi) <= 2.0 + 1e-10


class TestValidate:
    def test_valid_family_passes(self):
        report = validate_nstar(scaled_power_family(0.5))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.description)
    def test_all_registered_families_pass(self, phi):
        report = validate_nstar(phi)
        assert report.passed, report.summary()

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
        assert "max float" in check.note

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


class TestTabulatedFamily:
    def test_matches_sampled_power(self):
        ts = np.geomspace(1e-8, 1e8, 60)
        phi_ref = power_family(0.5)
        tab = tabulated_density_family(ts, np.asarray(phi_ref.density(ts)))
        xs = np.geomspace(1e-3, 1e3, 9)
        got = np.asarray(tab(xs))
        want = np.asarray(phi_ref(xs))
        assert np.max(np.abs(got - want) / want) < 1e-8

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
