"""Command-line front end.

Commands: validate, norm, metric, conjugate, delta2, check, dual-norm, demo
nonconvex, demo dualzero; each accepts only the flags its handler reads.
Arguments take inline shorthand (power:p=0.5, interval:L=1,N=1000, 1,-2)
or a path to a JSON document (bare *.json path or @path). Handlers return
their report and verdict; main maps it to the exit code: 0 all asserted
checks pass, 1 an asserted check failed, 2 usage or document error. The
class of an error decides its code, wherever it was raised: a DomainError
(the inputs lie outside what the operation accepts) exits 2, any other
NStarError (a computation could not certify its result) exits 1.
Machine-readable output (json, csv) is byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .calculus import VALIDATE_GRID, complementary, delta2_solve, growth_factor, validate_nstar
from .documents import fn_from_text, format_float, functional_from_text, json_ready, phi_from_text, space_from_text
from .dual import (
    dual_zero_halving,
    functional_norm_formula,
    halving_instance,
    nonconvexity_demo,
    operator_norm_bruteforce,
)
from .errors import CapacityError, DomainError, NStarError
from .space import SLACK_TOL, luxemburg_norm, metric
from .suite import CHECK_NAMES, DEFAULT_SAMPLES, DEFAULT_SEED, default_doubling_constant, run_check_suite

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def _grid(args, min_points: int = 1) -> np.ndarray:
    if not (0 < args.grid_lo < np.inf and 0 < args.grid_hi < np.inf):
        raise DomainError("--grid-lo and --grid-hi must be finite and positive")
    if args.grid_points < min_points:
        raise DomainError(f"--grid-points must be at least {min_points}")
    # the rounded power at an end next to the largest float can overflow;
    # geomspace then sets both ends to the given values exactly
    with np.errstate(over="ignore"):
        return np.geomspace(args.grid_lo, args.grid_hi, args.grid_points)


def _tol(value: float) -> float:
    """A --tol slack tolerance; NaN fails too."""
    if not 0 <= value <= sys.float_info.max:
        raise DomainError(f"--tol must be finite and non-negative, got {value!r}")
    return value


def _emit(payload: dict, table_lines: list[str], args) -> None:
    if args.format == "table":
        text = "\n".join(table_lines) + "\n"
    elif args.format == "json":
        text = json.dumps(json_ready(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:  # csv, the last of the choices argparse allows
        text = _to_csv(payload)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)


def _to_csv(payload: dict) -> str:
    rows = payload.get("results")
    if not isinstance(rows, list):
        rows = [payload]
    buf = io.StringIO()
    keys = list(dict.fromkeys(k for row in rows for k in row))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k, "")) for k in keys])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# command handlers: each returns the payload, the table lines and the verdict
# ---------------------------------------------------------------------------

_Report = tuple[dict, list[str], bool]


def _cmd_validate(args) -> _Report:
    phi = phi_from_text(args.phi)
    report = validate_nstar(phi, _grid(args, min_points=2), seed=args.seed)
    results = [
        {"name": c.name, "pass": c.passed, "residual": c.residual, "note": c.note}
        for c in report.checks
    ]
    payload = {"command": "validate", "phi": args.phi, "results": results, "pass": report.passed}
    lines = [f"validate {args.phi}"]
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"  {mark}  {c.name:36s} residual={c.residual:.3e}")
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    return payload, lines, report.passed


def _cmd_norm(args) -> _Report:
    phi = phi_from_text(args.phi)
    space = space_from_text(args.space)
    f = fn_from_text(args.fn, space, "--fn")
    result = luxemburg_norm(phi, space, f)
    payload = {
        "command": "norm",
        "value": result.value,
        "residual": result.lambda_residual,
        "iterations": result.iterations,
    }
    return payload, [f"norm = {format_float(result.value)}"], True


def _cmd_metric(args) -> _Report:
    phi = phi_from_text(args.phi)
    space = space_from_text(args.space)
    f = fn_from_text(args.fn, space, "--fn")
    g = fn_from_text(args.fn2, space, "--fn2")
    value = metric(phi, space, f, g)
    payload = {"command": "metric", "value": value}
    return payload, [f"metric = {format_float(value)}"], True


def _cmd_conjugate(args) -> _Report:
    phi = phi_from_text(args.phi)
    phi_hat = complementary(phi, use_registered=not args.numeric)
    grid = _grid(args)
    values = phi_hat(grid)
    results = []
    reference = None
    if phi.registered_complementary is not None and args.numeric:
        reference = phi.registered_complementary()(grid)
    for i, t in enumerate(grid):
        rec = {"t": float(t), "value": float(values[i])}
        if reference is not None:
            rec["reference"] = float(reference[i])
            rec["rel_gap"] = float(abs(values[i] - reference[i]) / abs(reference[i]))
        results.append(rec)
    payload = {"command": "conjugate", "phi": args.phi, "numeric": args.numeric, "results": results}
    lines = [f"complementary of {args.phi}" + (" (numeric pipeline)" if args.numeric else "")]
    for rec in results:
        extra = f"  ref={format_float(rec['reference'])}" if "reference" in rec else ""
        lines.append(f"  t={format_float(rec['t'])}  value={format_float(rec['value'])}{extra}")
    return payload, lines, True


def _cmd_delta2(args) -> _Report:
    phi = phi_from_text(args.phi)
    cert = delta2_solve(phi, args.k0, _grid(args))
    payload = {
        "command": "delta2",
        "k0": cert.k0,
        "status": cert.status,
        "k_global": cert.k_global,
        "k_min": cert.k_min,
        "k_max": cert.k_max,
        "residual_max": cert.residual_max,
        "growth_factor": growth_factor(phi),
    }
    lines = [
        f"doubling certificate for {args.phi} (k0={format_float(cert.k0)})",
        f"  status   = {cert.status}",
        f"  k range  = [{format_float(cert.k_min)}, {format_float(cert.k_max)}]",
    ]
    if cert.k_global is not None:
        lines.append(f"  k_global = {format_float(cert.k_global)}")
    return payload, lines, True


def _cmd_check(args) -> _Report:
    phi = phi_from_text(args.phi)
    space = space_from_text(args.space)
    checks = list(CHECK_NAMES) if args.suite == "all" else args.suite.split(",")
    tol = _tol(args.tol)
    records = run_check_suite(phi, space, checks, samples=args.samples, seed=args.seed, tol=tol)
    results = [r.to_record() for r in records]
    ok = all(r.passed is not False for r in records)
    payload = {
        "command": "check",
        "seed": args.seed,
        "samples": args.samples,
        "results": results,
        "pass": ok,
    }
    lines = [f"check suite (seed={args.seed}, samples={args.samples})"]
    for rec in records:
        mark = "skip" if rec.skipped else ("pass" if rec.passed else "FAIL")
        lines.append(
            f"  {mark}  {rec.name:18s} slack=[{format_float(rec.slack_min)}, {format_float(rec.slack_max)}]"
        )
        for note in rec.notes:
            lines.append(f"        note: {note}")
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    return payload, lines, ok


def _cmd_dual_norm(args) -> _Report:
    tol = _tol(args.tol)
    phi = phi_from_text(args.phi)
    space = space_from_text(args.space)
    U = functional_from_text(args.functional, space, phi)
    formula = functional_norm_formula(U)
    brute = operator_norm_bruteforce(U, seed=args.seed)
    k = default_doubling_constant(phi)
    ok = formula * (1 - tol) <= brute <= k * formula * (1 + tol) or formula == brute == 0.0
    payload = {
        "command": "dual-norm",
        "formula": formula,
        "bruteforce": brute,
        "k": k,
        "bracket_pass": ok,
    }
    lines = [
        f"coefficient-formula norm  S = {format_float(formula)}",
        f"brute-force unit-ball max   = {format_float(brute)}",
        f"bracket S <= max <= k*S (k={format_float(k)}): {'pass' if ok else 'FAIL'}",
    ]
    return payload, lines, ok


def _cmd_nonconvex(args) -> _Report:
    phi = phi_from_text(args.phi)
    space = space_from_text(args.space)
    # nonconvexity_demo raises once a modular falls below epsilon, so a returned trace passes
    trace = nonconvexity_demo(phi, space, args.epsilon, args.n)
    results = [{"n": int(c), "modular": float(m)} for c, m in zip(trace.counts, trace.modulars)]
    final = float(trace.modulars[-1])
    payload = {
        "command": "demo-nonconvex",
        "epsilon": trace.epsilon,
        "results": results,
        "final_modular": final,
        "pass": True,
    }
    lines = [
        f"averaged disjoint bumps, epsilon={format_float(trace.epsilon)}",
        f"  final modular at n={args.n}: {format_float(final)}",
        "  lower bound modular >= epsilon: pass",
    ]
    return payload, lines, True


def _cmd_dualzero(args) -> _Report:
    phi = phi_from_text(args.phi)
    space = space_from_text(args.space)
    if args.fn and not args.kernel:
        raise DomainError("demo dualzero: --fn needs --kernel; --kernel alone runs with the built-in f0")
    if args.fn:
        f0 = fn_from_text(args.fn, space, "--fn")
    else:
        try:
            f0, kernel = halving_instance(phi, space)
        except CapacityError as exc:
            # the built-in f0 and kernel leave the float range for this generator and space; the flags replace them
            raise CapacityError(f"demo dualzero: {exc}; give f0 and the kernel with --fn and --kernel") from exc
    if args.kernel:
        kernel = fn_from_text(args.kernel, space, "--kernel")
    trace = dual_zero_halving(phi, space, f0, kernel, args.iterations, args.theta)
    bounds = trace.decay_bound()
    results = [
        {
            "iteration": s.iteration,
            "modular": s.modular,
            "functional_value": s.functional_value,
            "bound": float(bounds[i]),
        }
        for i, s in enumerate(trace.steps)
    ]
    ratio = trace.steps[-1].modular / trace.steps[0].modular
    drop = min(abs(s.functional_value) for s in trace.steps) - abs(trace.steps[0].functional_value)
    # cumulative product of the per-step bounds the run actually enforced
    cumulative_bound = float(np.prod([s.step_bound for s in trace.steps]))
    ok = bool(ratio <= cumulative_bound * (1 + 1e-9)) and drop >= -1e-6
    payload = {
        "command": "demo-dualzero",
        "theta": args.theta,
        "iterations": args.iterations,
        "modular_ratio": ratio,
        "cumulative_bound": cumulative_bound,
        "functional_drop": drop,
        "results": results,
        "pass": ok,
    }
    lines = [
        f"support halving, theta={format_float(args.theta)}, {args.iterations} iterations",
        f"  modular ratio rho_n/rho_0 = {format_float(ratio)}",
        f"  enforced cumulative bound = {format_float(cumulative_bound)}",
        f"  worst functional drop     = {format_float(drop)}",
        f"  decay within bound        : {'pass' if ok else 'FAIL'}",
    ]
    return payload, lines, ok


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_FLAG_HELP = {
    "phi": "generator shorthand or JSON path",
    "space": "space shorthand or JSON path",
    "fn": "function shorthand or JSON path",
    "fn2": "second function",
    "functional": "coefficients c1,c2,... or JSON path",
}


_DEFAULT = " (default %(default)s)"


def _add_common(parser: argparse.ArgumentParser, *required: str) -> None:
    """The named flags of _FLAG_HELP, each required, then --format and --out."""
    for name in required:
        parser.add_argument(f"--{name}", required=True, help=_FLAG_HELP[name])
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("--out", help="also write the emitted report to this file")


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_grid(parser: argparse.ArgumentParser, lo=1e-3, hi=1e3, points=50) -> None:
    parser.add_argument("--grid-lo", type=float, default=lo)
    parser.add_argument("--grid-hi", type=float, default=hi)
    parser.add_argument("--grid-points", type=int, default=points)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nstar",
        description="Concave generators, their function spaces, and executable checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run structural checks on a generator")
    _add_common(p, "phi")
    _add_grid(p, lo=float(VALIDATE_GRID[0]), hi=float(VALIDATE_GRID[-1]), points=VALIDATE_GRID.size)
    p.add_argument("--seed", type=_seed, default=0, help="seed of the random sample pairs")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("norm", help="Luxemburg quasi-norm of a function")
    _add_common(p, "phi", "space", "fn")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("metric", help="modular distance between two functions")
    _add_common(p, "phi", "space", "fn", "fn2")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("conjugate", help="evaluate the complementary generator on a grid")
    _add_common(p, "phi")
    _add_grid(p, lo=1e-3, hi=1e3, points=13)
    p.add_argument(
        "--numeric",
        action="store_true",
        help="skip the closed complement; compute it from the density by Young's equality",
    )
    p.set_defaults(handler=_cmd_conjugate)

    p = sub.add_parser("delta2", help="solve the doubling relation on a grid")
    _add_common(p, "phi")
    _add_grid(p)
    p.add_argument("--k0", type=float, default=20.0, help="doubling hypothesis constant (> 2)")
    p.set_defaults(handler=_cmd_delta2)

    p = sub.add_parser("check", help="run the inequality check suite")
    _add_common(p, "phi", "space")
    p.add_argument("--suite", default="all", help="'all' or comma-separated check names" + _DEFAULT)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="random instances per check" + _DEFAULT)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="seed of the random instances" + _DEFAULT)
    p.add_argument("--tol", type=float, default=SLACK_TOL, help="slack tolerance" + _DEFAULT)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "dual-norm",
        help="norm of an atomic functional: formula S vs witness and unit-ball maximum",
        description="Print S = max_i |u_i| phi^-1(1/a_i) and the largest |U(f)|/||f|| over the "
        "single-atom witnesses, which attain S exactly, and 100 seeded unit-ball points "
        "(--seed); exit 1 if that maximum leaves the bracket [S, k S].",
    )
    _add_common(p, "phi", "space", "functional")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the unit-ball points")
    p.add_argument("--tol", type=float, default=1e-6, help="relative tolerance of the bracket")
    p.set_defaults(handler=_cmd_dual_norm)

    demo = sub.add_parser("demo", help="constructive demonstrations")
    demos = demo.add_subparsers(dest="demo", required=True)

    p = demos.add_parser("nonconvex", help="averaged disjoint bumps: no convex neighbourhood of 0")
    _add_common(p, "phi")
    p.add_argument("--space", "--atoms", dest="space", required=True, help=_FLAG_HELP["space"])
    p.add_argument("--epsilon", type=float, default=1.0, help="modular of each bump")
    p.add_argument("--n", type=int, default=100, help="number of bumps")
    p.set_defaults(handler=_cmd_nonconvex)

    p = demos.add_parser("dualzero", help="support halving: the modular falls, the functional does not")
    _add_common(p, "phi", "space")
    p.add_argument("--fn", help="starting function f0 (needs --kernel)")
    p.add_argument("--kernel", help="kernel of the integral functional (alone, with the built-in f0)")
    p.add_argument("--theta", type=float, default=0.5, help="split fraction of the modular" + _DEFAULT)
    p.add_argument("--iterations", type=int, default=20, help="halving rounds" + _DEFAULT)
    p.set_defaults(handler=_cmd_dualzero)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        payload, lines, ok = args.handler(args)
    except NStarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_ASSERTION
    _emit(payload, lines, args)
    return EXIT_OK if ok else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
