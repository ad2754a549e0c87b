import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstar import calculus, numerics
from nstar.calculus import complementary
from nstar.errors import DivergedIntegralError, DomainError, NonconvergenceError
from nstar.families import (
    alpha_exp_family,
    from_density,
    log_sqrt_family,
    power_family,
    tabulated_density_family,
)
from nstar.numerics import (
    CumulativeIntegral,
    LogLogLinear,
    bisect_increasing,
    invert_increasing,
)


def log_sqrt_conjugate_density(t):
    """Density of the Young conjugate of expm1(s^2), the inverse of log_sqrt.

    It is the s with 2 s exp(s^2) = t, i.e. s^2 = W(t^2 / 2) / 2 with the
    Lambert W function: Newton steps on v = log(s^2), whose equation
    exp(v) + v/2 = log(t/2) is convex and increasing in v, started right of
    the root so that they descend monotonically onto it.
    """
    c = np.log(np.asarray(t, dtype=float) / 2.0)
    v = np.where(c <= 1.0, 2.0 * c, np.log(np.maximum(c, 1.0)))
    for _ in range(60):
        v = v - (np.exp(v) + 0.5 * v - c) / (np.exp(v) + 0.5)
    return np.exp(0.5 * v)


def call_limited(g, limit=10_000):
    """Wrap a density so that a runaway refinement fails instead of hanging."""
    calls = 0

    def limited(t):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise RuntimeError(f"density called more than {limit} times")
        return g(t)

    return limited


def quadrature_work(monkeypatch, integrator, run):
    """run() with the given integrator class: (its value, gauss_panel calls, density nodes)."""
    work = [0, 0]
    plain = numerics.gauss_panel

    def counting(g, a, b):
        work[0] += 1
        work[1] += numerics._GL_X.size * np.broadcast(a, b).size
        return plain(g, a, b)

    with monkeypatch.context() as m:
        m.setattr(numerics, "gauss_panel", counting)
        m.setattr(calculus, "CumulativeIntegral", integrator)
        value = run()
    return value, work[0], work[1]


class TestCumulativeIntegral:
    def test_integrable_singularity_matches_antiderivative(self):
        # integral of t^(-1/2) over (0, x] is 2 sqrt(x)
        cum = CumulativeIntegral(lambda t: t**-0.5)
        xs = np.geomspace(1e-6, 1e6, 25)
        got = cum(xs)
        want = 2.0 * np.sqrt(xs)
        assert np.max(np.abs(got - want) / want) < 1e-10

    def test_smooth_density(self):
        cum = CumulativeIntegral(lambda t: np.exp(-t))
        xs = np.array([0.1, 1.0, 5.0, 30.0])
        want = 1.0 - np.exp(-xs)
        assert np.max(np.abs(cum(xs) - want)) < 1e-10

    def test_zero_and_negative_arguments(self):
        cum = CumulativeIntegral(lambda t: t**-0.25)
        assert cum(0.0) == 0.0
        assert cum(-1.0) == 0.0

    def test_scalar_round_trip(self):
        cum = CumulativeIntegral(lambda t: np.ones_like(t))
        assert cum(2.5) == pytest.approx(2.5, rel=1e-12)

    def test_mesh_extends_down_for_small_arguments(self):
        cum = CumulativeIntegral(lambda t: t**-0.5)
        big = cum(1.0)
        tiny = cum(1e-12)
        assert big == pytest.approx(2.0, rel=1e-10)
        assert tiny == pytest.approx(2e-6, rel=1e-8)

    def test_nonintegrable_density_diverges(self):
        cum = CumulativeIntegral(lambda t: 1.0 / t)
        with pytest.raises(DivergedIntegralError):
            cum(1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_argument_is_domain_error(self, bad):
        cum = CumulativeIntegral(call_limited(lambda t: t**-0.5))
        with pytest.raises(DomainError):
            cum(bad)
        with pytest.raises(DomainError):
            cum(np.array([1.0, bad]))

    def test_integrated_generators_at_infinity_fail_fast(self):
        ts = np.geomspace(1e-6, 1e6, 16)
        tabulated = tabulated_density_family(ts, 0.5 * ts**-0.5)
        tabulated = dataclasses.replace(
            tabulated, density=call_limited(tabulated.density)
        )
        integrated = from_density(call_limited(lambda t: t**-0.5))
        for phi in (tabulated, integrated):
            with pytest.raises(DomainError):
                phi(np.inf)

    def test_non_finite_panel_value_diverges(self):
        # the density is NaN above 2: the first panel graded down from 10 holds NaN
        cum = CumulativeIntegral(call_limited(lambda t: np.where(t > 2.0, np.nan, t**-0.5)))
        with pytest.raises(DivergedIntegralError):
            cum(10.0)
        up = CumulativeIntegral(call_limited(lambda t: np.where(t > 2.0, np.inf, t**-0.5)))
        assert up(1.0) == pytest.approx(2.0, rel=1e-10)
        with pytest.raises(DivergedIntegralError):
            up(10.0)

    def test_matches_a_closed_integral_across_the_float_range(self):
        # with s the density at t, the integral is t s - expm1(s^2); below
        # ~1e-154 the oracle's t^2/4 leaves the normal floats
        cum = CumulativeIntegral(log_sqrt_conjugate_density)
        xs = np.geomspace(1e-150, 1e300, 91)
        s = log_sqrt_conjugate_density(xs)
        assert np.max(np.abs(cum(xs) / (xs * s - np.expm1(s * s)) - 1.0)) < 1e-10

    def test_arguments_below_the_normal_floats_give_zero(self, monkeypatch):
        cum = CumulativeIntegral(lambda t: t**-0.5)
        xs = np.array([5e-324, 1e-310, np.finfo(float).tiny])
        values, calls, _ = quadrature_work(monkeypatch, CumulativeIntegral, lambda: cum(xs))
        np.testing.assert_array_equal(values, 0.0)
        assert calls == 0

    def test_non_finite_density_below_the_argument_diverges(self):
        # NaN on [1e-200, 2e-200] only: the mesh holds it for every argument above 1e-200
        cum = CumulativeIntegral(lambda t: np.where((t > 1e-200) & (t < 2e-200), np.nan, t**-0.5))
        assert cum(1e-201) == pytest.approx(2e-201**0.5 * 2**0.5, rel=1e-10)
        with pytest.raises(DivergedIntegralError):
            cum(1.0)

    @pytest.mark.parametrize("a, integrable", [(0.01, False), (0.025, False), (0.03, True)])
    def test_mass_below_the_normal_floats_must_be_negligible(self, a, integrable):
        # t^(a-1) leaves 2^(-1022 a) / a below 2^-1022: 2.1e-8 of F(1) at a = 0.025, 5.8e-10 at 0.03
        cum = CumulativeIntegral(lambda t: t ** (a - 1.0))
        if integrable:
            assert cum(1.0) == pytest.approx(1.0 / a, rel=1e-9)
        else:
            with pytest.raises(DivergedIntegralError):
                cum(1.0)

    @pytest.mark.parametrize(
        "density",
        [lambda t: t**-0.5, lambda t: np.exp(-t), log_sqrt_family().density, log_sqrt_conjugate_density],
        ids=["inv_sqrt", "exp", "log_sqrt", "log_sqrt_conjugate"],
    )
    def test_one_build_then_one_panel_per_argument(self, monkeypatch, density):
        cum = CumulativeIntegral(density)
        _, calls, _ = quadrature_work(monkeypatch, CumulativeIntegral, lambda: cum(1.0))
        # at most 23 refinement levels, then the argument's panel
        assert calls <= 24
        xs = np.geomspace(1e-300, 1e300, 61)
        _, calls, nodes = quadrature_work(monkeypatch, CumulativeIntegral, lambda: cum(xs))
        assert (calls, nodes) == (1, 15 * xs.size)


def _quarter_power_table():
    ts = np.geomspace(1e-6, 1e6, 33)
    return ts, 0.25 * ts**-0.75


class TestComplementWork:
    @pytest.mark.parametrize(
        "make",
        [
            log_sqrt_family,
            lambda: power_family(0.5),
            lambda: alpha_exp_family(3.0),
            lambda: tabulated_density_family(*_quarter_power_table()),
        ],
        ids=["log_sqrt", "power", "alpha_exp", "tabulated"],
    )
    def test_complement_runs_no_quadrature(self, monkeypatch, make):
        xs = np.geomspace(1e-3, 1e3, 16)

        def job():
            hat = complementary(make(), use_registered=False)
            return hat(xs), hat.density(xs), hat.inverse(xs)

        values, calls, nodes = quadrature_work(monkeypatch, CumulativeIntegral, job)
        assert calls == nodes == 0
        assert all(np.all(np.isfinite(v) & (v > 0)) for v in values)


class TestInvertIncreasing:
    def test_round_trip(self):
        f = lambda x: x**3
        ys = np.geomspace(1e-9, 1e9, 13)
        xs = invert_increasing(f, ys)
        assert np.max(np.abs(f(xs) - ys) / ys) < 1e-12

    def test_zero_maps_to_zero(self):
        assert invert_increasing(lambda x: x**2, 0.0) == 0.0

    def test_scalar_and_vector(self):
        out = invert_increasing(lambda x: 2.0 * x, 4.0)
        assert isinstance(out, float)
        assert out == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("y, want", [(1e100, 1e200), (1e-100, 1e-200)])
    def test_root_past_the_product_range(self, y, want):
        # sqrt(lo * hi) overflowed to inf and underflowed to 0 here
        assert invert_increasing(power_family(0.5), y) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("y", [1e200, 1e-200])
    def test_root_past_the_float_range_raises(self, y):
        with pytest.raises(NonconvergenceError):
            invert_increasing(power_family(0.5), y)

    @pytest.mark.parametrize("y", [1e80, 1e-80])
    def test_tabulated_density_inverse_at_extreme_levels(self, y):
        # y = 1e-80: lo * hi fell into the subnormal range; y = 1e80: it overflowed
        ts = np.geomspace(1e-6, 1e6, 50)
        phi = tabulated_density_family(ts, 0.5 * ts**-0.5)  # phi(x) = sqrt(x)
        assert phi.inverse(y) == pytest.approx(y**2, rel=1e-9, abs=0.0)

    @given(
        q=st.floats(0.1, 10.0),
        log_c=st.floats(-3.0, 3.0),
        u=st.floats(0.0, 1.0),
    )
    def test_power_roots_across_the_float_range(self, q, log_c, u):
        # the root's exponent is drawn where c * x^q stays inside [1e-300, 1e300]
        lo = max(-300.0, (-300.0 - log_c) / q)
        hi = min(300.0, (300.0 - log_c) / q)
        root = 10.0 ** (lo + u * (hi - lo))
        c = 10.0**log_c
        got = invert_increasing(lambda x: c * x**q, c * root**q)
        assert abs(got / root - 1.0) <= 1e-12

    def test_squared_growth_reaches_any_level_in_few_calls(self):
        # a fixed x4 growth took 721 calls here, 668 of them only to grow brackets
        calls = 0

        def sqrt(x):
            nonlocal calls
            calls += 1
            return np.sqrt(x)

        ys = np.geomspace(1e-100, 1e100, 16)
        got = invert_increasing(sqrt, ys)
        assert calls == 81
        # the same floats as one bisection over the whole normal range
        tiny, top = np.finfo(float).tiny, np.finfo(float).max
        want, _ = bisect_increasing(np.sqrt, ys, np.full(16, tiny), np.full(16, top))
        np.testing.assert_array_equal(got, want)


class TestBisectIncreasing:
    def test_closes_every_bracket_to_adjacent_floats(self):
        tiny, top = np.finfo(float).tiny, np.finfo(float).max
        ys = np.array([tiny, 3e-200, 0.7, 1.0, 2.5e150, top / 2])
        lo, hi = bisect_increasing(lambda x: x, ys, np.full(6, tiny), np.full(6, top))
        np.testing.assert_array_equal(lo, ys)  # the largest x with x <= y
        np.testing.assert_array_equal(hi, np.nextafter(ys, np.inf))


class TestInterpolants:
    def test_loglog_linear_exact_on_powers(self):
        xs = np.geomspace(1e-6, 1e6, 40)
        interp = LogLogLinear(xs, 3.0 * xs**-0.7)
        probe = np.geomspace(1e-8, 1e8, 100)  # includes extrapolation range
        want = 3.0 * probe**-0.7
        assert np.max(np.abs(interp(probe) - want) / want) < 1e-12

    def test_zero_maps_to_zero(self):
        xs = np.geomspace(1e-3, 1e3, 10)
        interp = LogLogLinear(xs, xs)
        assert interp(0.0) == 0.0

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0], [1.0]),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.0, 3.0, 4.0, 5.0]),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, -2.0, 3.0, 4.0, 5.0]),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, np.nan, 3.0, 4.0, 5.0]),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, np.inf, 4.0, 5.0]),
            ([0.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
            ([1.0, np.nan, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
            ([1.0, 3.0, 2.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0]),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 2.0, 3.0, 1e300, np.nextafter(1e300, np.inf)], [1.0, 2.0, 3.0, 4.0, 5.0]),
        ],
        ids=["one", "zero", "negative", "nan", "inf", "zero_x", "nan_x", "unsorted_x", "mismatched", "same_log_x"],
    )
    def test_loglog_linear_rejects_bad_samples(self, x, y):
        # five samples, so dropping the bad one would still leave a valid table
        with pytest.raises(ValueError):
            LogLogLinear(np.array(x), np.array(y))


@st.composite
def decreasing_tables(draw):
    """Knots 0.25-3 decades apart; log-log slopes in [-0.95, 0] on the low piece, [-4, 0] elsewhere."""
    n = draw(st.integers(2, 8))
    gaps = np.array(draw(st.lists(st.floats(0.25, 3.0), min_size=n - 1, max_size=n - 1)))
    log_t = draw(st.floats(-6.0, -3.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    slopes = [draw(st.floats(-0.95, 0.0))] + draw(st.lists(st.floats(-4.0, 0.0), min_size=n - 2, max_size=n - 2))
    log_p = draw(st.floats(-3.0, 3.0)) + np.concatenate(([0.0], np.cumsum(np.array(slopes) * gaps)))
    return 10.0**log_t, 10.0**log_p


def mp_table_integral(ts, ps, x):
    """Integral over (0, x] of the piecewise power law through (ts, ps), in 30-digit mpmath.

    The exponents come from the samples in mpmath precision. The low piece
    integrates in closed form (its t^a singularity at 0 defeats quad for a
    near -1); mpmath.quad integrates the rest piece by piece.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    ts = [mp.mpf(float(t)) for t in ts]
    ps = [mp.mpf(float(p)) for p in ps]
    a = [mp.log(ps[k + 1] / ps[k]) / mp.log(ts[k + 1] / ts[k]) for k in range(len(ts) - 1)]

    def density(t):
        k = min(max(sum(1 for tk in ts if tk <= t) - 1, 0), len(a) - 1)
        return ps[k] * (t / ts[k]) ** a[k]

    x = mp.mpf(float(x))
    b = a[0] + 1
    if x <= ts[0]:
        return float(ps[0] * ts[0] / b * (x / ts[0]) ** b)
    return float(ps[0] * ts[0] / b + mp.quad(density, [t for t in ts if t < x] + [x]))


class TestLogLogCalculus:
    """LogLogLinear.integral and integral_inverse, the closed forms of a piecewise power law."""

    @pytest.mark.parametrize("q", [0.5, 0.75])
    def test_closed_form_on_power_tables(self, q):
        ts = np.geomspace(1e-6, 1e6, 50)
        interp = LogLogLinear(ts, q * ts ** (q - 1.0))  # integral x^q
        ys = np.geomspace(1e-80, 1e80, 321)
        xs = ys ** (1.0 / q)
        assert np.max(np.abs(interp.integral(xs) / ys - 1.0)) <= 1e-13
        assert np.max(np.abs(interp.integral_inverse(ys) / xs - 1.0)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(decreasing_tables(), st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3))
    def test_matches_mpmath_quadrature(self, table, log_x):
        ts, ps = table
        interp = LogLogLinear(ts, ps)
        xs = 10.0 ** np.array(log_x)
        got = interp.integral(xs)
        want = np.array([mp_table_integral(ts, ps, x) for x in xs])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        # the inverse solves the level; on a bounded integral a level that
        # rounds to the supremum has its root at inf
        back = interp.integral_inverse(got)
        finite = np.isfinite(back)
        assert finite.all() or interp.hi_slope < -1
        assert np.all(np.abs(interp.integral(back[finite]) / got[finite] - 1.0) <= 1e-13)

    def test_bounded_integral(self):
        # flat to 2, then t^-2: the integral is 4 - 4/t above 2 and tends to 4
        interp = LogLogLinear(np.array([1.0, 2.0, 4.0]), np.array([1.0, 1.0, 0.25]))
        assert interp.integral(1e300) == pytest.approx(4.0, rel=1e-15)
        assert interp.integral_inverse(3.0) == pytest.approx(4.0, rel=1e-15)
        assert interp.integral_inverse(4.0) == np.inf
        with pytest.raises(NonconvergenceError):
            interp.integral_inverse(np.array([1.0, np.nextafter(4.0, np.inf)]))

    def test_nan_level_is_domain_error(self):
        interp = LogLogLinear(np.array([1.0, 2.0]), np.array([1.0, 0.5]))
        with pytest.raises(DomainError):
            interp.integral_inverse(np.nan)

    @pytest.mark.parametrize("ps, want", [([3.0, 3.0], 3.0), ([3.0, 1.0], np.inf)], ids=["flat", "falling"])
    def test_value_at_zero_is_the_low_edge_limit(self, ps, want):
        # a rising edge gives 0 (test_zero_maps_to_zero); below 0 the value stays 0
        interp = LogLogLinear(np.array([1.0, 2.0]), np.array(ps))
        assert interp(0.0) == pytest.approx(want, rel=1e-15)
        assert interp(-1.0) == 0.0
        np.testing.assert_array_equal(interp(np.array([-1.0, 0.0])), [0.0, interp(0.0)])

    def test_tabulated_generator_runs_no_quadrature_or_bisection(self, monkeypatch):
        def no_bisection(*args):
            raise AssertionError("bisection ran")

        monkeypatch.setattr(numerics, "bisect_increasing", no_bisection)
        monkeypatch.setattr(calculus, "invert_increasing", no_bisection)
        ts = np.geomspace(1e-6, 1e6, 33)

        def job():
            phi = tabulated_density_family(ts, 0.25 * ts**-0.75)
            assert not isinstance(phi.eval_fn, CumulativeIntegral)
            return phi(np.geomspace(1e-9, 1e9, 50)), phi.inverse(np.geomspace(1e-9, 1e9, 50))

        (values, roots), calls, nodes = quadrature_work(monkeypatch, CumulativeIntegral, job)
        assert calls == nodes == 0
        assert np.all(values > 0) and np.all(roots > 0)
