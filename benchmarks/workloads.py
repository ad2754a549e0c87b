"""The four workloads: inputs made from a seed, the jobs, and their oracles.

Every job returns plain values (floats, arrays, dicts), and its check
compares them with an oracle that shares no code with the path under test:
closed forms computed here with numpy, the stored mpmath values in
`refs/`, or a theorem that fixes the expected verdict. Each workload makes
its jobs in rounds. A round holds the same job kinds and sizes every time,
with fresh random parameters, so a run of whole rounds does the same mix of
work on every seed.

Module functions are always reached as `nstar.<name>` at call time, so the
wrappers installed by `spans.Tracer` see every call.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import nstar
from spans import read_summary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"  # child output and span files; listed in .gitignore
REFS = BENCH_DIR / "refs" / "log_sqrt_complement.json"

# (family, parameter) pairs of the closed-form generators
CLOSED = (
    ("power", 0.25),
    ("power", 0.5),
    ("power", 0.75),
    ("power_scaled", 0.25),
    ("power_scaled", 0.5),
    ("power_scaled", 0.75),
    ("alpha_exp", 4.0 / 3.0),
    ("alpha_exp", 2.0),
    ("alpha_exp", 4.0),
)
POWERS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    budget_s: float  # wall budget; a job past it fails and enters latency at this value
    run: Callable[[], Any]
    check: Callable[[Any], "tuple[str | None, float]"]


class Verdict:
    """Oracle comparisons for one job: the first failure is the reason, err the worst relative error."""

    def __init__(self):
        self.reason: str | None = None
        self.err = 0.0

    def fail(self, why: str) -> None:
        if self.reason is None:
            self.reason = why

    def true(self, what: str, cond) -> None:
        if not cond:
            self.fail(what)

    def close(self, what: str, got, want, rtol: float) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape}, expected {want.shape}")
            return
        with np.errstate(all="ignore"):
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        err = float(np.max(rel)) if rel.size else 0.0
        if not np.isfinite(err):
            err = float("inf")
        self.err = max(self.err, err)
        if not err <= rtol:
            self.fail(f"{what}: relative error {err:.3g} > {rtol:g}")

    def near(self, what: str, got, want, atol: float) -> None:
        gap = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        if not gap <= atol:
            self.fail(f"{what}: off by {gap:.3g} > {atol:g}")

    def result(self) -> "tuple[str | None, float]":
        return self.reason, self.err


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_params(family: str, param: float) -> tuple[float, float]:
    """(c, q) with phi(x) = c |x|^q."""
    if family == "power":
        return 1.0, param
    if family == "power_scaled":
        return param**-param, param
    return param ** (1.0 / param), 1.0 / param  # alpha_exp


def make_closed(family: str, param: float):
    if family == "power":
        return nstar.power_family(param)
    if family == "power_scaled":
        return nstar.scaled_power_family(param)
    return nstar.alpha_exp_family(param)


def closed_complement(c: float, q: float, x):
    return np.asarray(x, dtype=float) ** (1.0 - q) / ((1.0 - q) ** (1.0 - q) * q**q * c)


def power_modular(c: float, q: float, values, masses) -> float:
    return c * float(np.sum(masses * np.abs(values) ** q))


def product_identity_slacks(phi_vals, hat_vals, alphas) -> tuple[float, float]:
    """(slack_min, slack_max) of alpha <= phi * hat <= 2 alpha, as the suite defines them."""
    prod = np.asarray(phi_vals) * np.asarray(hat_vals)
    lower = (prod - alphas) / alphas
    upper = (2.0 * alphas - prod) / alphas
    return float(min(lower.min(), upper.min())), float(max(lower.max(), upper.max()))


def halving_rho0(cells: int, decay: float = 16.0) -> float:
    """Midpoint sum of exp(-decay x) over [0, 1]: the modular halving_instance builds."""
    h = 1.0 / cells
    return h * np.exp(-0.5 * decay * h) * (-np.expm1(-decay)) / (-np.expm1(-decay * h))


def load_refs() -> tuple[np.ndarray, np.ndarray]:
    doc = json.loads(REFS.read_text())
    return np.asarray(doc["x"], dtype=float), np.asarray(doc["complement"], dtype=float)


def _choice(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# bulk_closed
# ---------------------------------------------------------------------------


class BulkClosed:
    """Closed-form generators on sampled intervals of 2^17-2^20 cells."""

    name = "bulk_closed"
    HALVING_STEPS = 12
    BUMPS = 32
    # one prefix split leaves at most one cell of modular mass on the wrong
    # side; at 2^16 cells and above that stays below 3e-4 of the split mass
    STEP_RTOL = 1e-3

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        sizes = (2**15, 2**16) if tiny else (2**17, 2**18, 2**19, 2**20)
        self.inputs = []
        for n in sizes:
            X = nstar.MeasureSpace.interval(1.0, n)
            lo = int(rng.integers(0, n // 2))
            hi = int(rng.integers(lo + n // 8, n + 1))
            fns = {
                "random": nstar.MeasurableFn(rng.uniform(0.0, 2.0, n), X),
                "identity": nstar.MeasurableFn.identity(X),
                "indicator": nstar.MeasurableFn.indicator(X, lo, hi),
                "constant": nstar.MeasurableFn.constant(X, float(rng.uniform(0.5, 4.0))),
            }
            self.inputs.append((X, fns))

    def round(self, rng: np.random.Generator) -> list[Job]:
        jobs = []
        ops = (self._lux, self._modular, self._metric, self._halving, self._nonconvex)
        for i, (X, fns) in enumerate(self.inputs):
            n = X.size
            for j, make in enumerate(ops):
                # the exponent sets the cost of a pass (x**0.5 is a square root),
                # so each (size, op) slot keeps one generator on every seed
                family, param = CLOSED[(i * len(ops) + j) % len(CLOSED)]
                jobs.append(make(rng, X, fns, family, param, f"{family}({param:g}) N=2^{n.bit_length() - 1}"))
        # every kind adds one job per round, so with an even count the median
        # latency would sit on the edge between two kinds; a 21st job makes it odd
        X, fns = self.inputs[-1]
        jobs.append(self._modular(rng, X, fns, "power", 0.25, f"power(0.25) N=2^{X.size.bit_length() - 1}"))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _lux(self, rng, X, fns, family, param, tag):
        name = _choice(rng, tuple(fns))
        f = fns[name]
        c, q = closed_params(family, param)

        def check(value):
            v = Verdict()
            v.close("norm vs p-norm identity", value, power_modular(c, q, f.values, X.masses) ** (1.0 / q), 1e-8)
            return v.result()

        return Job(
            "luxemburg_norm", f"luxemburg_norm {tag} {name}", 10.0,
            lambda: nstar.luxemburg_norm(make_closed(family, param), X, f).value, check,
        )

    def _modular(self, rng, X, fns, family, param, tag):
        name = _choice(rng, tuple(fns))
        f = fns[name]
        c, q = closed_params(family, param)

        def check(value):
            v = Verdict()
            v.close("modular vs closed sum", value, power_modular(c, q, f.values, X.masses), 1e-8)
            return v.result()

        return Job(
            "modular", f"modular {tag} {name}", 10.0,
            lambda: nstar.modular(make_closed(family, param), X, f).value, check,
        )

    def _metric(self, rng, X, fns, family, param, tag):
        a, b = (tuple(fns)[i] for i in rng.permutation(len(fns))[:2])
        f, g = fns[a], fns[b]
        c, q = closed_params(family, param)

        def check(value):
            v = Verdict()
            v.close("metric vs closed sum", value, power_modular(c, q, f.values - g.values, X.masses), 1e-8)
            return v.result()

        return Job(
            "metric", f"metric {tag} {a}-{b}", 10.0,
            lambda: nstar.metric(make_closed(family, param), X, f, g), check,
        )

    def _halving(self, rng, X, fns, family, param, tag):
        c, q = closed_params(family, param)
        steps = self.HALVING_STEPS

        def run():
            phi = make_closed(family, param)
            f0, kernel = nstar.halving_instance(phi, X)
            trace = nstar.dual_zero_halving(phi, X, f0, kernel, steps)
            return {"modulars": trace.modulars, "values": trace.functional_values}

        def check(value):
            v = Verdict()
            rho, vals = value["modulars"], value["values"]
            v.close("initial modular vs midpoint sum", rho[0], halving_rho0(X.size), 1e-9)
            v.close("initial functional value", vals[0], 2.0, 1e-9)
            # doubling the kept half multiplies the modular by 2^q / 2 on a power family
            v.close("per-step modular ratio", rho[1:] / rho[:-1], np.full(steps, 2.0 ** (q - 1.0)), self.STEP_RTOL)
            v.true("functional value dropped", np.min(np.abs(vals)) >= 2.0 * (1.0 - 1e-9))
            return v.result()

        return Job("dual_zero_halving", f"dual_zero_halving {tag}", 10.0, run, check)

    def _nonconvex(self, rng, X, fns, family, param, tag):
        c, q = closed_params(family, param)
        eps = float(rng.uniform(0.1, 4.0))
        bumps = self.BUMPS

        def check(value):
            v = Verdict()
            v.close("modular growth vs eps*m^(1-p)", value, eps * np.arange(1, bumps + 1) ** (1.0 - q), 1e-9)
            return v.result()

        return Job(
            "nonconvexity_demo", f"nonconvexity_demo {tag} eps={eps:.3g}", 10.0,
            lambda: nstar.nonconvexity_demo(make_closed(family, param), X, eps, bumps).modulars, check,
        )


# ---------------------------------------------------------------------------
# numeric_cold
# ---------------------------------------------------------------------------


class NumericCold:
    """Fresh generators through the numeric pipeline, each used once."""

    name = "numeric_cold"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        small, mid, large = (100, 300, 1000) if tiny else (10**3, 3 * 10**3, 10**4)
        # a round sorts into 4 jobs of ~15 ms, 4 of ~40 ms (the mid-size tables)
        # and 3 of ~130 ms; with 11 jobs, an odd count, the median latency falls
        # inside one kind's group rather than on the edge between two
        self.spaces = []
        for n, q in ((small, 0.25), (mid, 0.25), (mid, 1 / 3), (mid, 0.5), (mid, 0.75), (large, 0.75)):
            X = nstar.MeasureSpace.interval(1.0, n)
            self.spaces.append((X, nstar.MeasurableFn(rng.uniform(0.0, 2.0, n), X), q))
        self.ref_x, self.ref_hat = load_refs()

    def round(self, rng: np.random.Generator) -> list[Job]:
        jobs = [self._complement_closed(rng, fam) for fam in ("power", "power_scaled", "alpha_exp")]
        jobs.extend(self._complement_log_sqrt(rng) for _ in range(2))
        jobs.extend(self._tabulated_norm(X, f, q) for X, f, q in self.spaces)
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def known_defects(self, rng: np.random.Generator) -> list[Job]:
        """complementary(tabulated_density) ran for over 9 minutes; it gets the pipeline's 2 s budget."""
        q = _choice(rng, POWERS)
        ts = np.geomspace(1e-6, 1e6, int(rng.integers(16, 65)))
        x = np.sort(10.0 ** rng.uniform(-3, 3, 8))

        def run():
            phi = nstar.tabulated_density_family(ts, q * ts ** (q - 1.0))
            return nstar.complementary(phi)(x)

        def check(value):
            v = Verdict()
            v.close("complement vs closed form", value, closed_complement(1.0, q, x), 1e-8)
            return v.result()

        return [Job("complement_tabulated", f"complementary(tabulated x^{q:g})", 2.0, run, check)]

    def _complement_closed(self, rng, family):
        param = _choice(rng, [p for f, p in CLOSED if f == family])
        c, q = closed_params(family, param)
        x = np.sort(10.0 ** rng.uniform(-3, 3, 16))

        def check(value):
            v = Verdict()
            v.close("numeric complement vs closed form", value, closed_complement(c, q, x), 1e-8)
            return v.result()

        return Job(
            "complement_numeric", f"complementary({family}({param:g}), use_registered=False)", 5.0,
            lambda: nstar.complementary(make_closed(family, param), use_registered=False)(x), check,
        )

    def _complement_log_sqrt(self, rng):
        idx = np.sort(rng.choice(self.ref_x.size, 16, replace=False))
        x, want = self.ref_x[idx], self.ref_hat[idx]

        def check(value):
            v = Verdict()
            v.close("log_sqrt complement vs mpmath", value, want, 1e-8)
            return v.result()

        return Job(
            "complement_log_sqrt", "complementary(log_sqrt) on 16 reference points", 5.0,
            lambda: nstar.complementary(nstar.log_sqrt_family())(x), check,
        )

    def _tabulated_norm(self, X, f, q):
        # the quadrature mesh refines at every knot, so the knot count is fixed
        ts = np.geomspace(1e-6, 1e6, 33)

        def run():
            phi = nstar.tabulated_density_family(ts, q * ts ** (q - 1.0))
            return {
                "norm": nstar.luxemburg_norm(phi, X, f).value,
                "modular": nstar.modular(phi, X, f).value,
            }

        def check(value):
            v = Verdict()
            rho = power_modular(1.0, q, f.values, X.masses)
            v.close("norm vs p-norm identity", value["norm"], rho ** (1.0 / q), 1e-8)
            v.close("modular vs closed sum", value["modular"], rho, 1e-8)
            return v.result()

        return Job("tabulated_norm", f"tabulated x^{q:g} norm+modular N={X.size}", 20.0, run, check)


# ---------------------------------------------------------------------------
# suite_warm
# ---------------------------------------------------------------------------


class SuiteWarm:
    """One generator object per job, reused across many small calls."""

    name = "suite_warm"
    SAMPLES = 5
    PRODUCT_GRID = np.geomspace(1e-4, 1e4, 41)  # run_check_suite's product_identity grid
    # log_sqrt has no doubling constant up to 1024 on [1e-3, 1e3]: k(x) = ((1+x)^4-1)/x
    LOG_SQRT_SKIPS = ("quasi_triangle", "modular_to_norm")

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        ref_x, ref_hat = load_refs()
        if not np.array_equal(ref_x, self.PRODUCT_GRID):
            raise RuntimeError(f"{REFS} is not on the check suite's product_identity grid")
        self.log_sqrt_slacks = product_identity_slacks(
            np.sqrt(np.log1p(ref_x)), ref_hat, ref_x
        )

    def round(self, rng: np.random.Generator) -> list[Job]:
        # sizes are fixed per slot because the log_sqrt suite's cost grows with them
        big, small = (16, 8) if self.tiny else (64, 8)
        cells = (100, 50) if self.tiny else (1000, 500)
        jobs = [
            self._suite(rng, "power", nstar.MeasureSpace.atomic(rng.uniform(0.05, 2.0, big))),
            self._suite(rng, "power", nstar.MeasureSpace.interval(float(rng.uniform(0.5, 2.0)), cells[0])),
            self._suite(rng, "log_sqrt", nstar.MeasureSpace.atomic(rng.uniform(0.05, 2.0, small))),
            self._suite(rng, "log_sqrt", nstar.MeasureSpace.interval(float(rng.uniform(0.5, 2.0)), cells[1])),
        ]
        jobs.append(self._delta2_power(rng))
        jobs.append(self._delta2_log_sqrt(rng))
        jobs.extend(self._dual(rng, m) for m in (3, 5, 8))
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _suite(self, rng, gen, X):
        p = _choice(rng, POWERS)
        seed = _seed(rng)
        names = list(nstar.CHECK_NAMES)

        def run():
            phi = nstar.power_family(p) if gen == "power" else nstar.log_sqrt_family()
            records = nstar.run_check_suite(phi, X, samples=self.SAMPLES, seed=seed)
            return {r.name: {"pass": r.passed, "slack_min": r.slack_min, "slack_max": r.slack_max} for r in records}

        def check(value):
            v = Verdict()
            v.true(f"suite records {list(value)} != {names}", list(value) == names)
            skips = self.LOG_SQRT_SKIPS if gen == "log_sqrt" else ()
            for name, rec in value.items():
                want = None if name in skips else True
                v.true(f"{name}: pass={rec['pass']}, expected {want}", rec["pass"] is want)
            if gen == "power":
                k = 1.0 / ((1.0 - p) ** (1.0 - p) * p**p)  # phi * hat = k * alpha
                want = (min(k - 1.0, 2.0 - k), max(k - 1.0, 2.0 - k))
            else:
                want = self.log_sqrt_slacks
            got = value["product_identity"]
            v.near("product_identity slacks", [got["slack_min"], got["slack_max"]], want, 1e-8)
            return v.result()

        label = f"run_check_suite {gen}{'' if gen == 'log_sqrt' else f'({p:g})'} {X.kind} N={X.size}"
        return Job("run_check_suite", label, 20.0, run, check)

    def _delta2_power(self, rng):
        p = _choice(rng, POWERS)
        k_true = 2.0 ** (1.0 / p)
        k0 = float(k_true * rng.uniform(1.1, 4.0))
        grid = np.geomspace(10.0 ** rng.uniform(-4, -2), 10.0 ** rng.uniform(2, 4), 50)

        def run():
            cert = nstar.delta2_solve(nstar.power_family(p), k0, grid)
            return {"status": cert.status, "k_global": cert.k_global}

        def check(value):
            v = Verdict()
            v.true(f"status {value['status']}", value["status"] == "exact_global")
            v.close("k_global vs 2^(1/p)", value["k_global"], k_true, 1e-10)
            return v.result()

        return Job("delta2_solve", f"delta2_solve power({p:g}) k0={k0:.3g}", 5.0, run, check)

    def _delta2_log_sqrt(self, rng):
        grid = np.geomspace(10.0 ** rng.uniform(-4, -2), 1.0, 21)

        def run():
            cert = nstar.delta2_solve(nstar.log_sqrt_family(), 20.0, grid)
            return {"status": cert.status, "ks": cert.ks}

        def check(value):
            v = Verdict()
            v.true(f"status {value['status']}", value["status"] == "per_x_only")
            v.close("k(x) vs ((1+x)^4-1)/x", value["ks"], ((grid + 1.0) ** 4 - 1.0) / grid, 1e-10)
            return v.result()

        return Job("delta2_solve", "delta2_solve log_sqrt k0=20", 5.0, run, check)

    def _dual(self, rng, m):
        p = _choice(rng, POWERS)
        masses = rng.uniform(0.1, 2.0, m)
        coeff = rng.uniform(-2.0, 2.0, m)
        seed = _seed(rng)
        X = nstar.MeasureSpace.atomic(masses)

        def run():
            U = nstar.AtomicFunctional(coeff, X, nstar.power_family(p))
            return {"formula": nstar.functional_norm_formula(U), "brute": nstar.operator_norm_bruteforce(U, seed=seed)}

        def check(value):
            v = Verdict()
            S = float(np.max(np.abs(coeff) * (1.0 / masses) ** (1.0 / p)))
            k = 2.0 ** (1.0 / p)
            v.close("formula vs max |u_i| phi^-1(1/a_i)", value["formula"], S, 1e-10)
            v.true(
                f"bracket S <= max <= kS fails: S={S:.6g} max={value['brute']:.6g} k={k:g}",
                S * (1 - 1e-9) <= value["brute"] <= k * S * (1 + 1e-9),
            )
            return v.result()

        return Job("dual_bracket", f"functional_norm_formula+bruteforce power({p:g}) {m} atoms", 10.0, run, check)


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs `nstar` commands one process at a time and keeps their peak RSS.

    Untraced commands run as `python -m nstar.cli`; traced ones through
    `launcher.py`, which writes spans to `out_dir`. Each child is reaped with
    `os.wait4` to read its own resource usage.
    """

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced = False
        self.peak_rss_kib = 0
        self.summaries: list[dict] = []
        self._count = 0

    def __call__(self, args: list[str]) -> dict:
        self._count += 1
        out = self.out_dir / "cli_stdout.txt"
        err = self.out_dir / "cli_stderr.txt"
        span_file = self.out_dir / f"cli_spans_{self._count}.npz"
        if self.traced:
            argv = [sys.executable, str(BENCH_DIR / "launcher.py"), str(span_file), str(self._count), "--", *args]
        else:
            argv = [sys.executable, "-m", "nstar.cli", *args]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if self.traced:
            self.summaries.append(read_summary(span_file))
            span_file.unlink()
        stdout = out.read_text()
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            doc = None
        return {"code": proc.returncode, "doc": doc, "traceback": "Traceback" in err.read_text()}


def _exit(v: Verdict, value, want_code: int) -> None:
    crash = " with a traceback" if value["traceback"] else ""
    v.true(f"exit code {value['code']}{crash}, expected {want_code}", value["code"] == want_code and not crash)


def _cli_ok(v: Verdict, value) -> dict:
    _exit(v, value, 0)
    doc = value["doc"]
    v.true("stdout is not a JSON document", isinstance(doc, dict))
    return doc if isinstance(doc, dict) else {}


def _chk_validate(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    v.true("power(0.5) failed validation", doc.get("pass") is True)
    v.true("a validation check failed", all(r["pass"] is True for r in doc.get("results", [None])))
    return v.result()


def _chk_norm(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    n = 100000
    x = (np.arange(n) + 0.5) / n
    v.close("norm vs (sum h sqrt x)^2", doc.get("value"), float(np.sum(np.sqrt(x)) / n) ** 2, 1e-8)
    return v.result()


def _chk_metric(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    v.close("metric of 1 vs 0 on [0, 1]", doc.get("value"), 1.0, 1e-9)
    return v.result()


def _chk_conjugate(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    rows = doc.get("results", [])
    t = np.geomspace(1e-3, 1e3, 13)
    v.close("grid", [r["t"] for r in rows], t, 1e-10)
    # power_scaled(1/2) is its own complement: sqrt(2 t)
    v.close("complement vs sqrt(2t)", [r["value"] for r in rows], np.sqrt(2.0 * t), 1e-8)
    return v.result()


def _chk_delta2(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    v.true(f"status {doc.get('status')}", doc.get("status") == "exact_global")
    v.close("k_global vs 2^(1/p)", doc.get("k_global"), 16.0, 1e-10)
    v.close("growth factor vs 2^p", doc.get("growth_factor"), 2.0**0.25, 1e-9)
    return v.result()


def _chk_check(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    rows = {r["name"]: r for r in doc.get("results", [])}
    v.true(f"checks {sorted(rows)}", sorted(rows) == sorted(nstar.CHECK_NAMES))
    v.true("a check failed", doc.get("pass") is True and all(r["pass"] is True for r in rows.values()))
    pi = rows.get("product_identity", {})
    v.near("product_identity slacks", [pi.get("slack_min"), pi.get("slack_max")], [0.0, 1.0], 1e-9)
    return v.result()


def _chk_dual_norm(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    S = max(1.0 * (1 / 0.25) ** 2, 2.0 * 1.0, 0.5 * (1 / 2.0) ** 2)
    v.close("formula", doc.get("formula"), S, 1e-10)
    v.close("k", doc.get("k"), 4.0, 1e-10)
    brute = doc.get("bruteforce", float("nan"))
    v.true(f"bracket {S} <= {brute} <= {4 * S}", S * (1 - 1e-9) <= brute <= 4 * S * (1 + 1e-9))
    return v.result()


def _chk_nonconvex(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    rows = doc.get("results", [])
    v.close("modular growth vs sqrt(n)", [r["modular"] for r in rows], np.sqrt(np.arange(1, 101)), 1e-9)
    return v.result()


def _chk_dualzero(value):
    v = Verdict()
    doc = _cli_ok(v, value)
    rows = doc.get("results", [])
    rho = np.asarray([r["modular"] for r in rows])
    vals = np.asarray([r["functional_value"] for r in rows])
    v.true(f"{len(rows)} steps, expected 21", len(rows) == 21)
    if len(rows) == 21:
        v.close("initial modular vs midpoint sum", rho[0], halving_rho0(65536), 1e-9)
        v.close("per-step modular ratio", rho[1:] / rho[:-1], np.full(20, 2.0**-0.5), BulkClosed.STEP_RTOL)
        v.true("functional value dropped", np.min(np.abs(vals)) >= 2.0 * (1.0 - 1e-9))
    return v.result()


def _chk_usage_error(value):
    v = Verdict()
    _exit(v, value, 2)
    return v.result()


README_COMMANDS = (
    ("validate --phi power:p=0.5", _chk_validate),
    ("norm --phi power:p=0.5 --space interval:L=1,N=100000 --fn identity", _chk_norm),
    ("metric --phi power:p=0.5 --space interval:L=1,N=1000 --fn constant:1 --fn2 constant:0", _chk_metric),
    ("conjugate --phi power_scaled:p=0.5 --numeric", _chk_conjugate),
    ("delta2 --phi power:p=0.25 --k0 20", _chk_delta2),
    ("check --phi power:p=0.5 --space interval:L=1,N=1000 --suite all --seed 7", _chk_check),
    ("dual-norm --phi power:p=0.5 --space atoms:0.25,1,2 --functional 1,-2,0.5", _chk_dual_norm),
    ("demo nonconvex --phi power:p=0.5 --epsilon 1 --n 100 --atoms equal:100", _chk_nonconvex),
    ("demo dualzero --phi power:p=0.5 --space interval:L=1,N=65536 --iterations 20", _chk_dualzero),
)

# malformed usage that README says exits 2; today each raises a ValueError and exits 1
MALFORMED = (
    "norm --phi power:p=0.5 --space interval:L=1,N=1000 --fn constant:abc",
    "norm --phi power:p=0.5 --space interval:L=1,N=1000 --fn indicator:a..b",
    "validate --phi power:p=0.5 --grid-points 0",
    "conjugate --phi power:p=0.5 --grid-lo 0",
)


class CliReadme:
    """The README commands, one process at a time."""

    name = "cli_readme"

    def __init__(self, seed: int, tiny: bool = False):
        # the inputs are fixed README commands; set-up is importing the CLI
        importlib.import_module("nstar.cli")
        self.runner = CliRunner(ROOT, OUT_DIR)

    def _job(self, kind, text, check):
        args = text.split() + ["--format", "json"]
        return Job(kind, f"nstar {text}", 20.0, lambda: self.runner(args), check)

    def round(self, rng: np.random.Generator) -> list[Job]:
        jobs = [self._job("cli_" + text.split()[0], text, chk) for text, chk in README_COMMANDS]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def known_defects(self, rng: np.random.Generator) -> list[Job]:
        return [self._job("cli_malformed", text, _chk_usage_error) for text in MALFORMED]


WORKLOADS = {w.name: w for w in (BulkClosed, NumericCold, SuiteWarm, CliReadme)}
