"""Acceptance suite: each test pins one advertised guarantee at its stated
tolerance and prints a single pass/fail line (run with -s to see them)."""

import math

import numpy as np
import pytest

from nstar import (
    MeasurableFn,
    MeasureSpace,
    alpha_exp_family,
    complementary,
    convergence_equivalence,
    delta2_solve,
    dual_zero_halving,
    evaluate_functional,
    functional_norm_formula,
    halving_instance,
    l1_embedding_bound_check,
    log_sqrt_family,
    luxemburg_norm,
    modular,
    modular_to_norm_bound_check,
    nonconvexity_demo,
    operator_norm_bruteforce,
    power_family,
    product_identity_check,
    quasi_triangle_check,
    reversed_jensen_check,
    scaled_power_family,
    simple_approximation,
    single_atom_witness,
    tabulated_density_family,
    validate_nstar,
    young_type_check,
)
from nstar.dual import AtomicFunctional
from nstar.space import metric


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def random_finite_space(rng: np.random.Generator) -> MeasureSpace:
    if rng.uniform() < 0.5:
        size = int(rng.integers(2, 17))
        return MeasureSpace.atomic(rng.uniform(0.1, 2.0, size))
    return MeasureSpace.interval(float(rng.uniform(0.5, 2.0)), int(rng.integers(64, 257)))


def test_01_power_family_norm_identity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for p in (0.25, 0.5, 0.75):
        phi = power_family(p)
        space = MeasureSpace.atomic(rng.uniform(0.05, 2.0, 64))
        for _ in range(200):
            f = MeasurableFn(rng.uniform(-3.0, 3.0, 64), space)
            lux = luxemburg_norm(phi, space, f).value
            direct = float(np.dot(np.abs(f.values) ** p, space.masses)) ** (1.0 / p)
            worst = max(worst, abs(lux - direct) / direct)
    report(f"C1 power-family norm identity (worst rel gap {worst:.2e})", worst <= 1e-8)


def test_02_doubling_constant():
    grid = np.geomspace(1e-3, 1e3, 50)
    worst = 0.0
    for p in (0.25, 0.5, 0.75):
        cert = delta2_solve(power_family(p), 20.0, grid)
        assert cert.status == "exact_global"
        worst = max(worst, abs(cert.k_global - 2.0 ** (1.0 / p)))
    report(f"C2 doubling constant 2^(1/p) (worst abs err {worst:.2e})", worst <= 1e-10)


def test_03_complementary_generator():
    grid = np.geomspace(1e-3, 1e3, 13)
    worst_single = 0.0
    worst_double = 0.0
    for p in (0.25, 0.5, 0.75):
        phi = scaled_power_family(p)
        hat = complementary(phi, use_registered=False)
        closed = grid ** (1.0 - p) / (1.0 - p) ** (1.0 - p)
        worst_single = max(worst_single, float(np.max(np.abs(np.asarray(hat(grid)) - closed) / closed)))
        hat2 = complementary(hat, use_registered=False)
        inner = np.geomspace(1e-2, 1e2, 9)
        back = np.asarray(hat2(inner))
        ref = np.asarray(phi(inner))
        worst_double = max(worst_double, float(np.max(np.abs(back - ref) / ref)))
    ok = worst_single <= 1e-8 and worst_double <= 1e-6
    report(
        f"C3 complementary generator (single {worst_single:.2e}, double {worst_double:.2e})", ok
    )


def test_04_young_type_inequality():
    rng = np.random.default_rng(1004)
    worst_slack = math.inf
    for _ in range(1000):
        space = random_finite_space(rng)
        p = float(rng.choice([0.25, 0.5, 0.75]))
        phi = scaled_power_family(p)
        f = MeasurableFn(rng.uniform(-3.0, 3.0, space.size), space)
        g = MeasurableFn(rng.uniform(-3.0, 3.0, space.size), space)
        worst_slack = min(worst_slack, young_type_check(phi, space, f, g).slack_min)
    # equality case: indicators under the self-complementary half-power generator
    unit = MeasureSpace.interval(1.0, 1000)
    chi = MeasurableFn.constant(unit, 1.0)
    eq = young_type_check(scaled_power_family(0.5), unit, chi, chi)
    ok = worst_slack >= -1e-9 and abs(eq.slack_min) <= 1e-9
    report(
        f"C4 young-type inequality (worst slack {worst_slack:.2e}, equality gap {abs(eq.slack_min):.2e})",
        ok,
    )


def test_05_reversed_jensen():
    rng = np.random.default_rng(1005)
    worst = math.inf
    for _ in range(1000):
        space = random_finite_space(rng)
        p = float(rng.choice([0.25, 0.5, 0.75]))
        f = MeasurableFn(rng.uniform(-4.0, 4.0, space.size), space)
        worst = min(worst, reversed_jensen_check(power_family(p), space, f).slack_min)
    n = 1000
    unit = MeasureSpace.interval(1.0, n)
    rep = reversed_jensen_check(power_family(0.5), unit, MeasurableFn.identity(unit))
    lhs_gap = abs(rep.data["phi_of_mean"] - 1.0 / math.sqrt(2.0))
    rhs_gap = abs(rep.data["mean_modular"] - 2.0 / 3.0)
    ok = worst >= -1e-9 and lhs_gap <= 1.0 / n and rhs_gap <= 1.0 / n
    report(
        f"C5 reversed Jensen (worst slack {worst:.2e}, closed-form gaps {lhs_gap:.1e}/{rhs_gap:.1e})",
        ok,
    )


def test_06_quasi_norm_not_norm():
    phi = power_family(0.5)
    k = delta2_solve(phi, 8.0, np.geomspace(1e-3, 1e3, 25)).bound_constant
    pair_space = MeasureSpace.atomic([1.0, 1.0])
    f = MeasurableFn(np.array([1.0, 0.0]), pair_space)
    g = MeasurableFn(np.array([0.0, 1.0]), pair_space)
    rep = quasi_triangle_check(phi, pair_space, f, g, k=k)
    ratio = rep.data["ratio"]
    rng = np.random.default_rng(1006)
    worst_ratio = 0.0
    for _ in range(200):
        space = random_finite_space(rng)
        a = MeasurableFn(rng.uniform(-2.0, 2.0, space.size), space)
        b = MeasurableFn(rng.uniform(-2.0, 2.0, space.size), space)
        worst_ratio = max(worst_ratio, quasi_triangle_check(phi, space, a, b, k=k).data["ratio"])
    ok = abs(ratio - 2.0) <= 1e-9 and ratio > 1.0 and worst_ratio <= 4.0 + 1e-9
    report(
        f"C6 quasi-norm not norm (witness ratio {ratio:.12g}, random max {worst_ratio:.6g} <= 4)",
        ok,
    )


def test_07_modular_to_norm_bound():
    phi = power_family(0.5)
    k = delta2_solve(phi, 8.0, np.geomspace(1e-3, 1e3, 25)).bound_constant
    rng = np.random.default_rng(1007)
    all_pass = True
    for _ in range(200):
        space = random_finite_space(rng)
        f = MeasurableFn(rng.uniform(-6.0, 6.0, space.size), space)
        c = modular(phi, space, f).value * float(rng.uniform(1.05, 5.0)) + 1e-9
        rep = modular_to_norm_bound_check(phi, space, f, c, k=k)
        all_pass = all_pass and bool(rep.passed)
    unit = MeasureSpace.interval(1.0, 1000)
    worked = modular_to_norm_bound_check(phi, unit, MeasurableFn.constant(unit, 9.0), 4.0, k=k)
    ok = (
        all_pass
        and worked.data["n0"] == 3
        and worked.data["bound"] == 64.0
        and abs(worked.data["norm"] - 9.0) <= 1e-6
    )
    report(
        f"C7 modular-to-norm bound (200 random pass, worked norm {worked.data['norm']:.6f} <= 64)",
        ok,
    )


def test_08_l1_embedding_bound():
    rng = np.random.default_rng(1008)
    worst = math.inf
    for _ in range(500):
        space = random_finite_space(rng)
        p = float(rng.choice([0.25, 0.5, 0.75]))
        f = MeasurableFn(rng.uniform(-3.0, 3.0, space.size), space)
        worst = min(worst, l1_embedding_bound_check(power_family(p), space, f).slack_min)
    report(f"C8 L1 embedding bound (worst slack {worst:.2e})", worst >= -1e-9)


def test_09_dual_norm_bracket():
    phi = power_family(0.5)
    cert = delta2_solve(phi, 8.0, np.geomspace(1e-3, 1e3, 25))
    k = cert.bound_constant
    rng = np.random.default_rng(1009)
    ok = True
    worst_norm_gap = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 6))
        space = MeasureSpace.atomic(rng.uniform(0.1, 3.0, size))
        U = AtomicFunctional(rng.uniform(-2.0, 2.0, size), space, phi)
        S = functional_norm_formula(U)
        brute = operator_norm_bruteforce(U, seed=int(rng.integers(1 << 30)))
        ok = ok and S * (1 - 1e-6) <= brute <= k * S * (1 + 1e-6)
        inv = np.asarray(phi.inverse(1.0 / space.masses))
        for i in range(size):
            w = single_atom_witness(U, i)
            norm_w = luxemburg_norm(phi, space, w).value
            worst_norm_gap = max(worst_norm_gap, abs(norm_w - 1.0))
            ok = ok and evaluate_functional(U, w) == U.coefficients[i] * inv[i]
    ok = ok and worst_norm_gap <= 1e-9
    report(
        f"C9 dual norm bracket (100 functionals, witness norm gap {worst_norm_gap:.2e})", ok
    )


def test_10_dual_zero_mechanism():
    phi = power_family(0.5)
    space = MeasureSpace.interval(1.0, 2**16)
    f0, kernel = halving_instance(phi, space)
    trace = dual_zero_halving(phi, space, f0, kernel, 20, 0.5)
    ratio = trace.steps[-1].modular / trace.steps[0].modular
    phi0 = abs(trace.steps[0].functional_value)
    worst_drop = min(abs(s.functional_value) - phi0 for s in trace.steps)
    ok = ratio <= 2.0**-10 * (1 + 1e-2) and worst_drop >= -1e-6
    report(
        f"C10 dual-zero mechanism (ratio {ratio:.6e} <= 2^-10*(1+1e-2), worst drop {worst_drop:.2e})",
        ok,
    )


def test_11_nonconvexity_growth():
    phi = power_family(0.5)
    space = MeasureSpace.atomic(np.full(100, 1.0))
    trace = nonconvexity_demo(phi, space, 1.0, 100)
    worst = max(
        abs(trace.modulars[n - 1] - math.sqrt(n)) / math.sqrt(n) for n in (1, 4, 25, 100)
    )
    phi2 = log_sqrt_family()
    trace2 = nonconvexity_demo(phi2, MeasureSpace.atomic(np.full(100, 1.0)), 1.0, 100)
    ok = worst <= 1e-9 and bool(np.all(trace2.modulars >= 1.0 - 1e-9))
    report(f"C11 non-convexity growth (worst rel err {worst:.2e}; log_sqrt lower bound holds)", ok)


def test_12_product_sandwich_with_additive_diagnostic():
    families = [
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
    grid = np.geomspace(1e-4, 1e4, 33)
    all_pass = all(product_identity_check(phi, grid).passed for phi in families)
    # the additive form must be caught failing at p=1/2, alpha=100, without failing the check
    rep = product_identity_check(scaled_power_family(0.5), np.array([100.0]))
    additive_value = float(rep.data["sum"][0])
    detected = any("additive lower bound fails" in n for n in rep.notes)
    ok = (
        all_pass
        and rep.passed
        and detected
        and additive_value == pytest.approx(2.0 * math.sqrt(200.0), rel=1e-12)
        and additive_value < 100.0
    )
    report(
        f"C12 product sandwich all families; additive counterexample {additive_value:.6f} < 100 detected",
        ok,
    )


def test_13_convergence_equivalence_and_density():
    phi = power_family(0.5)
    rng = np.random.default_rng(1013)
    ok = True
    for _ in range(50):
        space = MeasureSpace.interval(1.0, int(rng.integers(128, 513)))
        f = MeasurableFn(rng.uniform(0.0, 1.0, space.size), space)
        seq = [simple_approximation(f, n) for n in range(1, 21)]
        rep = convergence_equivalence(phi, space, seq, f, threshold=1e-3)
        ok = ok and rep.verdict
        ok = ok and rep.metric_distances[-1] < 1e-3 and rep.norm_distances[-1] < 1e-3
        ok = ok and bool(np.all(np.diff(rep.metric_distances) <= 1e-12))
        ok = ok and bool(np.all(np.diff(rep.norm_distances) <= 1e-9))
    report("C13 convergence equivalence and density (50 targets, monotone to < 1e-3)", ok)


def test_14_every_family_validates_on_the_default_grid():
    ts = np.geomspace(1e-6, 1e6, 33)
    generators = [power_family(p) for p in (0.1, 0.5, 0.9, 0.995)]
    generators += [scaled_power_family(p) for p in (0.1, 0.5, 0.99)]
    generators += [alpha_exp_family(a) for a in (1.01, 3.0, 10.0)]
    generators += [log_sqrt_family(), tabulated_density_family(ts, 0.3 * ts**-0.7)]
    # the numeric complements: one inversion of 1/p per inverse
    generators += [complementary(log_sqrt_family()), complementary(power_family(0.3), use_registered=False)]
    failed = [phi.description for phi in generators if not validate_nstar(phi).passed]
    report(f"C14 {len(generators)} generators validate on 1e-300..1e300 (failed: {failed or 'none'})", not failed)
