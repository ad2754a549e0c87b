#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nstar package.

Run from the repository root:

    python3 benchmarks/run.py --workload bulk_closed --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --self-check

One process drives the package as a closed loop with one client: the next
job starts when the previous one returns; there are no thread or process
pools (cli_readme runs one child process at a time). A run

1. with --trace 0, times SETUP_PROBES fresh processes that import nstar
   and build the workload's inputs (`setup_s`, the median);
2. imports nstar, builds the inputs and runs one untimed job of each kind
   (cli_readme gets no warm-up: every CLI user pays a cold process);
3. runs whole rounds of jobs until --seconds have passed and at least
   MIN_JOBS jobs ran, timing every job and checking its result against an
   oracle; a job that raises, returns a wrong result, exits with the wrong
   code or runs past its budget fails and enters the latencies at its budget;
4. with --trace 1, spends half of --seconds on step 3 untraced, then replays
   the same jobs with span wrappers installed (see spans.py) and reports
   per-layer self time and work counts per job, plus the tracing overhead;
5. runs the workload's known-defect jobs once, outside the measured phase,
   and prints how each ended;
6. prints the environment, every metric with its unit, every failed job,
   and as its last line one JSON object with the metrics of the trace mode.

BLAS, OpenMP and malloc variables are left as the user has them.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_JOBS = 11  # job_tail_s reads the latency with 10 jobs beyond it
TAIL_BEYOND = 10
COMPLEMENT_KINDS = ("complement_numeric", "complement_log_sqrt", "cli_conjugate")


class JobTimeout(BaseException):
    """Raised by the job alarm; a BaseException so `except Exception` in nstar cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass(frozen=True)
class Outcome:
    job_id: int
    kind: str
    label: str
    latency_s: float  # the budget for failed jobs
    ok: bool
    reason: str
    err: float


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("bulk_closed", "numeric_cold", "suite_warm", "cli_readme"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    ap.add_argument("--setup-probe", action="store_true", help="import nstar, build inputs, exit")
    ap.add_argument("--self-check", action="store_true", help="check metric names, units and oracles")
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nstar").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def execute(job, job_id: int, tracer=None) -> tuple[Outcome, object]:
    """Run one job under its wall budget and check its result."""
    if tracer is not None:
        tracer.job = job_id
    value, reason, err, latency = None, "", float("nan"), job.budget_s
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, job.budget_s)
            value = job.run()
            latency = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        reason = f"ran past its {job.budget_s:g} s budget"
        if tracer is not None:
            tracer.repair()
    except Exception as exc:
        reason = f"raised {type(exc).__name__}: {exc}"
    if not reason:
        try:
            why, err = job.check(value)
        except Exception as exc:
            why = f"result could not be checked: {type(exc).__name__}: {exc}"
        reason = why or ""
    ok = not reason
    return Outcome(job_id, job.kind, job.label, latency if ok else job.budget_s, ok, reason, err), value


def timed_phase(workload, seed: int, seconds: float):
    """Whole rounds until `seconds` have passed and MIN_JOBS ran; returns jobs, outcomes, wall time."""
    import numpy as np

    jobs, outcomes = [], []
    t0 = perf_counter()
    r = 0
    while r == 0 or perf_counter() - t0 < seconds or len(outcomes) < MIN_JOBS:
        for job in workload.round(np.random.default_rng([seed, r])):
            outcomes.append(execute(job, len(outcomes))[0])
            jobs.append(job)
        r += 1
    return jobs, outcomes, perf_counter() - t0


def warm_up(workload, seed: int) -> tuple[float, int]:
    import numpy as np

    seen = set()
    t0 = perf_counter()
    for job in workload.round(np.random.default_rng([seed, 2**32 - 1])):
        if job.kind not in seen:
            seen.add(job.kind)
            execute(job, -1)
    return perf_counter() - t0, len(seen)


def setup_probes(args) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(outcomes, wall_s: float, setup: list[float], peak_rss_kib: int) -> tuple[dict, str]:
    lat = sorted(o.latency_s for o in outcomes)
    n = len(lat)
    rank = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND jobs beyond it
    ok = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (ok / wall_s, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (lat[rank - 1], "s"),
        "ok_frac": (ok / n, "frac"),
        "peak_rss_mib": (peak_rss_kib / 1024.0, "MiB"),
    }
    note = f"rank {rank} of {n} jobs, percentile {100.0 * rank / n:.1f}"
    return metrics, note


def per_layer(summary: dict, jobs: int, import_s: float, overhead: float, max_err: float) -> dict:
    from spans import LAYERS

    metrics = {}
    counts = summary["counts"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (summary["self_s"][layer] / jobs, "s/job")
    for key in (
        "numerics.quad_nodes",
        "numerics.inverter_f_evals",
        "numerics.inverter_targets",
        "numerics.table_points",
        "numerics.errors",
        "calculus.phi_calls",
        "calculus.phi_elems",
        "calculus.inverse_calls",
        "calculus.complement_builds",
        "space.lux_calls",
        "space.lux_iterations",
        "space.minor_faults",
    ):
        metrics[key] = (counts[key] / jobs, "count/job")
    metrics["calculus.complement_max_rel_err"] = (max_err, "rel")
    metrics["space.bytes_computed"] = (counts["space.bytes_computed"] / jobs, "B/job")
    metrics["measure.calls"] = (summary["calls"]["measure"] / jobs, "count/job")
    metrics["dual.calls"] = (summary["calls"]["dual"] / jobs, "count/job")
    metrics["suite.instances"] = (summary["suite_instances"] / jobs, "count/job")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def merge_summaries(summaries: list[dict]) -> dict:
    from spans import COUNTERS, LAYERS

    total = {
        "spans": sum(s["spans"] for s in summaries),
        "self_s": dict.fromkeys(LAYERS, 0.0),
        "calls": dict.fromkeys(LAYERS, 0),
        "suite_instances": 0,
        "counts": dict.fromkeys(COUNTERS, 0),
    }
    for s in summaries:
        for layer in LAYERS:
            total["self_s"][layer] += s["self_s"][layer]
            total["calls"][layer] += s["calls"][layer]
        for key in COUNTERS:
            total["counts"][key] += s["counts"][key]
        total["suite_instances"] += s["suite_instances"]
    return total


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _import_package() -> float:
    """Import nstar from this checkout's src/; return the import time in seconds."""
    init = SRC / "nstar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of an nstar checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import nstar

    import_s = perf_counter() - t0
    if Path(nstar.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported nstar from {nstar.__file__}, not from {SRC}")
    return import_s


def run(args) -> int:
    import_s = _import_package()
    setup = [] if args.trace or args.setup_probe else setup_probes(args)
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    if args.setup_probe:
        return 0
    runner = getattr(workload, "runner", None)
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    warm_s, warm_jobs = (0.0, 0) if runner is not None else warm_up(workload, args.seed)
    print(f"# warm-up: {warm_jobs} jobs in {warm_s:.3f} s")

    if args.trace:
        jobs, plain, plain_wall = timed_phase(workload, args.seed, args.seconds / 2)
        from spans import Tracer

        tracer = None
        if runner is not None:
            runner.traced = True
        else:
            tracer = Tracer()
            tracer.install()
        t0 = perf_counter()
        traced = [execute(job, i, tracer)[0] for i, job in enumerate(jobs)]
        traced_wall = perf_counter() - t0
        outcomes = plain + traced
        if runner is not None:
            summary = merge_summaries(runner.summaries)
            import_s = statistics.median(s["import_s"] for s in runner.summaries)
        else:
            summary = tracer.summary()
            tracer.dump(workloads.OUT_DIR / f"spans_{args.workload}_{args.seed}.npz")
        errs = [o.err for o in traced if o.kind in COMPLEMENT_KINDS and o.ok]
        metrics = per_layer(summary, len(traced), import_s, traced_wall / plain_wall - 1.0, max(errs, default=0.0))
        print(f"# measured: {len(plain)} jobs untraced in {plain_wall:.3f} s, replayed traced in {traced_wall:.3f} s ({summary['spans']} spans)")
        tail_note = ""
    else:
        jobs, outcomes, wall = timed_phase(workload, args.seed, args.seconds)
        rss = runner.peak_rss_kib if runner is not None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, tail_note = end_to_end(outcomes, wall, setup, rss)
        print(f"# measured: {len(outcomes)} jobs in {wall:.3f} s; set-up probes " + ", ".join(f"{t:.3f}" for t in setup) + " s")

    known = getattr(workload, "known_defects", None)
    if known is not None:
        import numpy as np

        if runner is not None:
            runner.traced = False
        for job in known(np.random.default_rng([args.seed, 2**32 - 2])):
            o = execute(job, -1)[0]
            print(f"# known defect {o.kind}: {o.label}: " + ("now passes" if o.ok else f"fails, {o.reason}"))

    by_kind: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o)
    for kind, group in sorted(by_kind.items()):
        errs = [o.err for o in group if o.ok and o.err == o.err]
        print(
            f"# kind {kind}: {len(group)} jobs, {sum(not o.ok for o in group)} failed, "
            f"median {statistics.median(o.latency_s for o in group):.4f} s"
            + (f", worst oracle error {max(errs):.2e}" if errs else "")
        )
    for o in outcomes:
        if not o.ok:
            print(f"# FAILED job {o.job_id} {o.kind}: {o.label}: {o.reason}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({tail_note})" if name == "job_tail_s" else ""
        print(f"# metric {name} = {value:.6g} {unit}{extra}")

    failed = sum(not o.ok for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def perturb(value):
    """Shift every number of a result: floats by a relative 1e-5, integers by 1, booleans flipped."""
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, (int, np.integer)):
        return value + 1
    if isinstance(value, (float, np.floating)):
        return float(value) * (1 + 1e-5) + 1e-7
    if isinstance(value, np.ndarray):
        return value * (1 + 1e-5) + 1e-7
    if isinstance(value, dict):
        return {k: perturb(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(perturb(v) for v in value)
    return value


def self_check() -> int:
    """Tiny runs of every workload: metric names and units as in BENCHMARK.json, oracles reject perturbed values."""
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(last)}")
            units = {k: v.get("unit") for k, v in last["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{where}: metrics/units {units} differ from BENCHMARK.json {wanted[trace]}")
            for name, (value, unit) in ((k, (v["value"], v["unit"])) for k, v in last["metrics"].items()):
                if f"# metric {name} = " not in proc.stdout:
                    problems.append(f"{where}: {name} not printed by name")
            print(f"self-check: {where}: {last['attempted']} jobs, {last['failed']} failed, {len(units)} metrics")

    _import_package()
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    checked = 0
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(5, True)
        rng = np.random.default_rng(7)
        jobs = workload.round(rng) + getattr(workload, "known_defects", lambda r: [])(rng)
        for job in jobs:
            outcome, value = execute(job, -1)
            if not outcome.ok:
                print(f"self-check: {name}: {job.label}: fails ({outcome.reason}); perturbation not tried")
                continue
            reason, _ = job.check(perturb(value))
            checked += 1
            if reason is None:
                problems.append(f"{name}: {job.label}: oracle accepted a perturbed result")
    print(f"self-check: {checked} oracles rejected a perturbed result" if not problems else "")
    for p in problems:
        print(f"self-check PROBLEM: {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
