import argparse
import contextlib
import copy
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nstar
from nstar import errors
from nstar.calculus import complementary, delta2_solve
from nstar.cli import build_parser, main
from nstar.dual import dual_zero_halving
from nstar.documents import _FUNCTIONS, _GENERATORS, _SPACES, fn_from_text
from nstar.families import from_density, power_family
from nstar.measure import MeasurableFn, MeasureSpace, integrate
from nstar.numerics import CumulativeIntegral
from nstar.suite import run_check_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_child(*argv, **env):
    """Run python with argv in a child process that imports the same package as this one; env adds variables."""
    src = str(Path(nstar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env={**os.environ, **env, "PYTHONPATH": path}
    )


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


class TestNorm:
    def test_identity_half_power(self, capsys):
        code, out = run_cli(
            capsys,
            "norm",
            "--phi",
            "power:p=0.5",
            "--space",
            "interval:L=1,N=100000",
            "--fn",
            "identity",
        )
        assert code == 0
        value = float(out.split("=")[1])
        assert value == pytest.approx(4.0 / 9.0, abs=1e-5)

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys,
            "norm",
            "--phi",
            "power:p=0.5",
            "--space",
            "atoms:1",
            "--fn",
            "constant:1",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "norm"
        assert doc["value"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c", [1e155, 1e-160])
    def test_constant_past_the_product_range(self, capsys, c):
        code, out = run_cli(
            capsys, "norm", "--phi", "power:p=0.5", "--space", "interval:L=1,N=10", "--fn", f"constant:{c:g}"
        )
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(c, rel=1e-9, abs=0.0)


    def test_overflowing_quotient_exits_one(self, capsys):
        argv = ["norm", "--phi", "power:p=0.5", "--space", "interval:L=1e-300,N=3", "--fn", "constant:1e300"]
        code = main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "overflows" in captured.err

    def test_underflowing_quotient_exits_one(self, capsys):
        # the true norm 1e300 puts f/lambda at 1e-600, below the float range
        argv = ["norm", "--phi", "power:p=0.5", "--space", "atoms:1e-300,1e300", "--fn", "constant:1e-300"]
        code = main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "underflows" in captured.err

    @pytest.mark.parametrize("p, printed", [("1e-9", "2.99999966693"), ("1e-12", "2.99966695158")])
    def test_tiny_exponent_within_its_error_bound_prints_the_norm(self, capsys, p, printed):
        # the exact norms are 3.00000016653 and 3.00016653808, inside the bound gamma_16 / p in log lambda
        argv = ["norm", "--phi", f"power:p={p}", "--space", "interval:L=1,N=10", "--fn", "constant:3"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.split("=")[1].strip() == printed

    @pytest.mark.parametrize("p", ["1e-16", "1e-17"])
    def test_tiny_exponent_past_its_error_bound_exits_one(self, capsys, p):
        # these printed 0.988456408521 and 4.52359715181e-05 with exit 0; the exact norms are 5.2 and 772.6
        argv = ["norm", "--phi", f"power:p={p}", "--space", "interval:L=1,N=10", "--fn", "constant:3"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "reaches order 1" in captured.err


class TestMetric:
    def test_indicator_distance(self, capsys):
        code, out = run_cli(
            capsys,
            "metric",
            "--phi",
            "power:p=0.5",
            "--space",
            "interval:L=1,N=1000",
            "--fn",
            "constant:1",
            "--fn2",
            "constant:0",
        )
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(1.0, rel=1e-9)


class TestValidate:
    def test_valid_family_exit_zero(self, capsys):
        code, out = run_cli(capsys, "validate", "--phi", "power:p=0.5")
        assert code == 0
        assert "overall: pass" in out

    def test_usage_error_exit_two(self, capsys):
        code, _ = run_cli(capsys, "validate", "--phi", "power:p=5")
        assert code == 2

    def test_slow_limit_passes_on_the_default_grid(self, capsys):
        # x^-0.1 changes tenfold over 10 decades, more than 1e-8..1e8 spans
        code, out = run_cli(capsys, "validate", "--phi", "power:p=0.9")
        assert code == 0
        assert "overall: pass" in out

    def test_json_matches_golden_on_the_former_default_grid(self, capsys):
        # the rows before inverse_round_trip are the output of the bisection-inverse validator
        argv = ["--phi", "power:p=0.5", "--grid-lo", "1e-8", "--grid-hi", "1e8", "--grid-points", "33"]
        code, out = run_cli(capsys, "validate", *argv, "--format", "json")
        assert code == 0
        assert out == (DATA / "validate_power_1e8.json").read_text()

    def test_unreachable_level_reports_failure(self, capsys):
        code, out = run_cli(capsys, "validate", "--phi", "power:p=1e-300")
        assert code == 1
        assert "FAIL  inverse_midpoint_convex" in out
        assert "overall: FAIL" in out

    def test_nan_residual_is_strict_json(self, capsys):
        code, out = run_cli(capsys, "validate", "--phi", "power:p=1e-300", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in strict_json(out)["results"]}
        assert checks["inverse_midpoint_convex"]["residual"] is None


    @pytest.mark.parametrize("phi", ["power:p=0.5", "tabulated"])
    def test_grid_reaching_the_top_binade(self, capsys, tmp_path, phi):
        # x1 + x2 overflows there: a table rejected the infinite argument, and
        # phi(inf) = inf failed subadditivity with residual -inf
        if phi == "tabulated":
            phi = str(tmp_path / "phi.json")
            Path(phi).write_text(json.dumps({"family": "tabulated_density", "params": {"t": [1, 2], "p": [1, 0.7]}}))
        code, out = run_cli(capsys, "validate", "--phi", phi, "--grid-lo", "1e200", "--grid-hi", "1.7e308", "--grid-points", "50")
        assert code == 0, out
        assert "overall: pass" in out


class TestDelta2:
    def test_power_quarter(self, capsys):
        code, out = run_cli(capsys, "delta2", "--phi", "power:p=0.25", "--k0", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "exact_global"
        assert doc["k_global"] == pytest.approx(16.0, abs=1e-9)

    def test_grid_past_the_float_range_exits_two(self, capsys):
        # k0 * x overflows on the grid; phi(inf) used to fail the concavity check with exit 1
        argv = ["delta2", "--phi", "power:p=0.5", "--grid-lo", "1e300", "--grid-hi", "1.7e308", "--k0", "1e300"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "overflows the float range" in err


class TestConjugate:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--phi", "power_scaled:p=0.5", "--grid-points", "5"),
            # alpha near the top of the float range: the complement is the identity to 1.4e-16
            ("--phi", "alpha_exp:alpha=9.8e299"),
        ],
        ids=["power_scaled", "alpha_exp-huge-alpha"],
    )
    def test_numeric_against_reference(self, capsys, argv):
        code, out = run_cli(capsys, "conjugate", *argv, "--numeric", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for rec in doc["results"]:
            assert rec["rel_gap"] < 1e-8


class TestCheck:
    def test_full_suite_passes(self, capsys):
        code, out = run_cli(
            capsys,
            "check",
            "--phi",
            "power:p=0.5",
            "--space",
            "interval:L=1,N=1000",
            "--suite",
            "all",
            "--seed",
            "7",
            "--samples",
            "10",
        )
        assert code == 0
        assert "overall: pass" in out
        # the additive sandwich counterexamples surface as notes, not failures
        assert "additive lower bound fails" in out

    def test_json_round_trip_and_determinism(self, capsys):
        args = (
            "check",
            "--phi",
            "power:p=0.5",
            "--space",
            "atoms:0.5,1,2",
            "--suite",
            "young_type,reversed_jensen,intersection",
            "--seed",
            "11",
            "--samples",
            "8",
            "--format",
            "json",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        records = json.loads(out1)["results"]
        assert {r["name"] for r in records} == {"young_type", "reversed_jensen", "intersection"}

    def test_skipped_records_are_strict_json(self, capsys):
        code, out = run_cli(
            capsys,
            "check",
            "--phi",
            "log_sqrt",
            "--space",
            "interval:L=1,N=100",
            "--samples",
            "2",
            "--suite",
            "quasi_triangle,reversed_jensen",
            "--format",
            "json",
        )
        assert code == 0
        skipped = strict_json(out)["results"][0]
        assert skipped["name"] == "quasi_triangle"
        assert skipped["pass"] is skipped["slack_min"] is skipped["slack_max"] is None

    def test_csv_round_trip(self, capsys):
        code, out = run_cli(
            capsys,
            "check",
            "--phi",
            "power:p=0.5",
            "--space",
            "atoms:1,1",
            "--suite",
            "reversed_jensen",
            "--samples",
            "5",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["name", "slack_min", "slack_max", "pass"]
        assert rows[1][0] == "reversed_jensen"
        float(rows[1][1])  # numeric cells parse back

    def test_csv_skipped_row_and_notes(self, capsys):
        code, out = run_cli(
            capsys,
            "check",
            "--phi",
            "log_sqrt",
            "--space",
            "atoms:1,2",
            "--suite",
            "quasi_triangle,product_identity",
            "--samples",
            "1",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "slack_min", "slack_max", "pass", "notes"]
        # a skipped check's pass is JSON null, an empty cell here
        assert rows[1] == [
            "quasi_triangle",
            "nan",
            "nan",
            "",
            "skipped: could not certify a doubling constant for this generator",
        ]
        notes = rows[2][4].split(";")
        assert len(notes) == 2
        assert notes[0].startswith("additive lower bound fails at 14 grid points")
        assert notes[1].startswith("additive upper bound fails at 23 grid points")

    def test_suite_samples_and_seed_flags(self, capsys):
        argv = ["check", "--phi", "power:p=0.5", "--space", "atoms:1,0.5", "--format", "json"]
        code, out = run_cli(capsys, *argv, "--suite", "young_type", "--samples", "5", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        assert [r["name"] for r in doc["results"]] == ["young_type"]
        assert (doc["samples"], doc["seed"]) == (5, 2)

    def test_omitted_flags_take_the_library_defaults(self, capsys):
        defaults = inspect.signature(run_check_suite).parameters
        argv = ["check", "--phi", "power:p=0.5", "--space", "atoms:1,0.5", "--format", "json"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        explicit = ["--suite", "all", "--tol", repr(defaults["tol"].default)]
        explicit += ["--samples", str(defaults["samples"].default), "--seed", str(defaults["seed"].default)]
        assert run_cli(capsys, *argv, *explicit) == (0, out)

    @pytest.mark.parametrize("missing", ["--phi", "--space"])
    def test_phi_and_space_are_required(self, capsys, missing):
        flags = {"--phi": "power:p=0.5", "--space": "atoms:1"}
        del flags[missing]
        code = main(["check", *[item for pair in flags.items() for item in pair]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.endswith(f"error: the following arguments are required: {missing}\n")

    def test_negative_samples_exit_two(self, capsys):
        code = main(["check", "--phi", "power:p=0.5", "--space", "atoms:1", "--samples", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: samples must be at least 1, got -1\n"

    def test_zero_samples_exit_two(self, capsys):
        code = main(["check", "--phi", "power:p=0.5", "--space", "atoms:1,2", "--samples", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "samples" in err
        assert "Traceback" not in err

    def test_unknown_check_exits_two(self, capsys):
        # run_check_suite owns the check names
        code = main(["check", "--phi", "power:p=0.5", "--space", "atoms:1", "--suite", "young_type,nonsense"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown checks ['nonsense']" in err

    @pytest.mark.parametrize("check", ["reversed_jensen", "l1_embedding"])
    def test_total_mass_past_the_float_range_exits_two(self, capsys, check):
        # each mass is finite, their sum is not: the check's precondition on the space
        code = main(["check", "--phi", "power:p=0.5", "--space", "atoms:1e308,1e308", "--suite", check])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "needs finite positive total mass" in captured.err

    @pytest.mark.parametrize("text, message", [("{not json", "line 1 col 2"), (None, "cannot read")])
    def test_unreadable_phi_document_exits_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        code = main(["check", "--phi", f"@{path}", "--space", "atoms:1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --phi: ") and message in err


DATA = Path(__file__).parent / "data"


# a generator of no degree on a cell count past a multiple of BLOCK: the
# suffix a round keeps starts inside a piece of the grid
DUALZERO_LOG_SQRT = "demo dualzero --phi log_sqrt --space interval:L=1,N=100000 --theta 0.3 --iterations 20".split()


class TestThreadCount:
    """Every long sum follows measure's sum rule, so no output depends on the BLAS thread count."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--phi", "power:p=0.5", "--space", "interval:L=1,N=100000", "--fn", "identity"],
            ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=65536", "--iterations", "20"],
            DUALZERO_LOG_SQRT,
        ],
        ids=["norm_readme", "dualzero_readme", "dualzero_log_sqrt"],
    )
    def test_one_and_two_blas_threads_print_the_same_bytes(self, argv):
        # a whole-array np.dot split across threads printed 4.00455224536e-11 for the
        # norm's residual under two threads and 4.00456334759e-11 under one
        runs = [run_child("-m", "nstar.cli", *argv, "--format", "json", OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
        assert [p.returncode for p in runs] == [0, 0], [p.stderr for p in runs]
        assert runs[0].stdout == runs[1].stdout


def test_readme_check_never_loads_numpy_ma():
    # np.median imported numpy.ma on its first call: 7.9 ms and about 1 MiB
    # of RSS in every process that certified a doubling constant
    script = "import sys; from nstar.cli import main; code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    argv = ["check", "--phi", "power:p=0.5", "--space", "interval:L=1,N=1000", "--suite", "all", "--seed", "7"]
    proc = run_child("-c", script, *argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


class TestCheckGolden:
    """--format json is byte-stable for a fixed seed; the check files hold the earlier if/elif suite's output."""

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # the README command
            (
                "check_readme.json",
                ["check", "--phi", "power:p=0.5", "--space", "interval:L=1,N=1000", "--suite", "all", "--seed", "7"],
            ),
            # a reordered subset: the checks draw from one rng in the order given
            (
                "check_atoms_subset.json",
                ["check", "--phi", "power:p=0.5", "--space", "atoms:0.25,1,2,4"]
                + ["--suite", "convergence,young_type,quasi_triangle"],
            ),
            # no doubling constant: the k-dependent checks are skip records
            ("check_log_sqrt.json", ["check", "--phi", "log_sqrt", "--space", "interval:L=1,N=1000"]),
            # the README solver commands: every digit of the quasi-norm shows
            ("norm_readme.json", ["norm", "--phi", "power:p=0.5", "--space", "interval:L=1,N=100000", "--fn", "identity"]),
            (
                "metric_readme.json",
                ["metric", "--phi", "power:p=0.5", "--space", "interval:L=1,N=1000"]
                + ["--fn", "constant:1", "--fn2", "constant:0"],
            ),
            (
                "dual_norm_readme.json",
                ["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:0.25,1,2", "--functional", "1,-2,0.5"],
            ),
            (
                "nonconvex_readme.json",
                ["demo", "nonconvex", "--phi", "power:p=0.5", "--epsilon", "1", "--n", "100", "--atoms", "equal:100"],
            ),
            # the unit-ball pass reaches S = 4 to rounding; the residual stop alone overshot it (4.00000000075)
            (
                "dual_norm_tiny_atom.json",
                ["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:1e-200,0.5", "--functional", "0,1"],
            ),
            # the halving demo: records of f0 for a declared degree, a sweep of every kept cell without one
            (
                "dualzero_readme.json",
                ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=65536", "--iterations", "20"],
            ),
            ("dualzero_log_sqrt.json", DUALZERO_LOG_SQRT),
        ],
    )
    def test_json_matches_golden(self, capsys, golden, argv):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == (DATA / golden).read_text()

    def test_names_of_checks_and_family_parameters(self):
        assert nstar.CHECK_NAMES == (
            "young_type",
            "reversed_jensen",
            "quasi_triangle",
            "l1_embedding",
            "modular_to_norm",
            "product_identity",
            "intersection",
            "convergence",
        )

        def fields(table):
            return {name: tuple(spec) for name, (_, spec) in table.items()}

        assert fields(_GENERATORS) == {
            "power": ("p",),
            "power_scaled": ("p",),
            "alpha_exp": ("alpha",),
            "log_sqrt": (),
            "tabulated_density": ("t", "p"),
        }
        assert fields(_SPACES) == {"atomic": ("masses",), "interval": ("L", "N")}
        assert fields(_FUNCTIONS) == {
            "constant": ("value",),
            "identity": (),
            "indicator": ("lo", "hi"),
            "random": ("seed", "low", "high"),
        }


class TestDualNorm:
    def test_bracket(self, capsys):
        code, out = run_cli(
            capsys,
            "dual-norm",
            "--phi",
            "power:p=0.5",
            "--space",
            "atoms:0.25",
            "--functional",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["formula"] == pytest.approx(16.0)
        assert doc["bruteforce"] == pytest.approx(16.0, rel=1e-9)
        assert doc["bracket_pass"] is True

    @pytest.mark.filterwarnings("error")
    def test_zero_coefficient_on_a_tiny_atom(self, capsys):
        # phi^{-1}(1 / 1e-200) overflows; the zero coefficient must add 0, not 0 * inf = NaN
        code = main(
            ["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:1e-200,0.5", "--functional", "0,1", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        doc = strict_json(captured.out)
        assert doc["formula"] == 4.0
        # the unit-ball pass can add the quasi-norm's residual error above S
        assert doc["bruteforce"] == pytest.approx(4.0, rel=1e-9)
        assert doc["bracket_pass"] is True

    def test_overflowing_norm_exits_one(self, capsys):
        code = main(["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:1e-200,0.5", "--functional", "1,1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "overflows" in captured.err

    def test_interval_space_exits_two(self, capsys):
        # the wrong kind of --space is a usage error; it exited 1 with the library's message
        code = main(["dual-norm", "--phi", "power:p=0.5", "--space", "interval:L=1,N=3", "--functional", "1,1,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "require an atomic space" in err

    def test_uncertified_doubling_constant_exits_one(self, capsys):
        # log_sqrt has no doubling constant on the grid: the inputs are valid, and the
        # bracket [S, k S] cannot be certified
        code = main(["dual-norm", "--phi", "log_sqrt", "--space", "atoms:1", "--functional", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: could not certify a doubling constant for this generator\n"

    def test_budget_flag_is_gone(self, capsys):
        code = main(["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:1", "--functional", "1", "--budget", "10"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err


_EXTREMES = ["1e308", "-1e308", "1e-308", "1e-320", "0", "-0", "nan", "inf", "-inf", "", "abc"]
_MASS = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr), st.sampled_from(_EXTREMES))
_COEFF = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(_EXTREMES))


@st.composite
def _dual_norm_argv(draw):
    m = draw(st.integers(1, 4))
    masses = draw(st.lists(_MASS, min_size=m, max_size=m))
    # mostly one coefficient per atom, so most draws get past the parser
    count = draw(st.sampled_from([m, m, m, m - 1, m + 1]))
    coeffs = draw(st.lists(_COEFF, min_size=count, max_size=count))
    phi = draw(st.sampled_from(["power:p=0.5", "power_scaled:p=0.25", "alpha_exp:alpha=3", "log_sqrt"]))
    space, functional = ",".join(masses), ",".join(coeffs)
    return ["dual-norm", "--phi", phi, f"--space=atoms:{space}", f"--functional={functional}", "--format", "json"]


class TestDualNormFuzz:
    @settings(max_examples=300)
    @given(_dual_norm_argv())
    def test_exit_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            strict_json(out.getvalue())


@st.composite
def _tabulated_density_doc(draw):
    """Two to six knots anywhere in the float range, each piece flat, gentle or steep in log-log."""
    n = draw(st.integers(2, 6))
    log_t = np.cumsum([draw(st.floats(-300.0, 300.0))] + draw(st.lists(st.floats(1e-3, 200.0), min_size=n - 1, max_size=n - 1)))
    # keep at least two knots inside the float range
    log_t = log_t[log_t <= 307.0] if log_t[1] <= 307.0 else log_t[:2] - (log_t[1] - 307.0)
    drops = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(3.0, 300.0)), min_size=log_t.size - 1, max_size=log_t.size - 1))
    log_p = np.maximum(draw(st.floats(-300.0, 300.0)) - np.concatenate(([0.0], np.cumsum(drops))), -307.0)
    return {"family": "tabulated_density", "params": {"t": list(10.0**log_t), "p": list(10.0**log_p)}}


_TABULATED_ARGS = st.one_of(
    st.just(["validate"]),
    st.tuples(
        st.sampled_from(["interval:L=1,N=50", "interval:L=1e-300,N=3", "interval:L=1e300,N=7"]),
        st.sampled_from(["identity", "constant:1", "constant:1e-300", "constant:1e300", "constant:0"]),
    ).map(lambda sf: ["norm", "--space", sf[0], "--fn", sf[1]]),
)


class TestTabulatedDensityFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_tabulated_density_doc(), _TABULATED_ARGS)
    def test_exit_contract(self, tmp_path_factory, doc, args):
        path = tmp_path_factory.getbasetemp() / "tabulated_fuzz.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([args[0], "--phi", str(path), *args[1:], "--format", "json"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            strict_json(out.getvalue())


_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_SHORTHAND_PHI = st.one_of(
    _OPEN_UNIT.map(lambda p: f"power:p={p!r}"),
    _OPEN_UNIT.map(lambda p: f"power_scaled:p={p!r}"),
    st.floats(1.0, 1e300, exclude_min=True).map(lambda a: f"alpha_exp:alpha={a!r}"),
    st.just("log_sqrt"),
)


class TestConjugateFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(_SHORTHAND_PHI, _tabulated_density_doc()),
        st.floats(-300.0, 300.0),
        st.floats(-300.0, 300.0),
        st.integers(1, 7),
        st.booleans(),
    )
    def test_exit_contract(self, tmp_path_factory, phi, log_lo, log_hi, points, numeric):
        if isinstance(phi, dict):
            path = tmp_path_factory.getbasetemp() / "conjugate_fuzz.json"
            path.write_text(json.dumps(phi))
            phi = str(path)
        argv = ["conjugate", "--phi", phi, "--grid-lo", repr(10.0**log_lo), "--grid-hi", repr(10.0**log_hi)]
        argv += ["--grid-points", str(points), *(["--numeric"] if numeric else []), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            for rec in strict_json(out.getvalue())["results"]:
                if "reference" in rec:
                    assert rec["rel_gap"] <= 1e-12, rec


def _mostly(valid, junk):
    """Seven draws in eight from valid, so that most drawn commands reach the library.

    The junk branch sits at 5, not 0: hypothesis draws the ends of a range often.
    """
    return st.integers(0, 7).flatmap(lambda i: junk if i == 5 else valid)


_FLOAT_TEXT = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(_EXTREMES))
_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr)
_FUZZ_MASS = _mostly(_POSITIVE, st.sampled_from(_EXTREMES))
# at most 64 cells: interval:L=...,N=... or one to four atoms
_FUZZ_SPACE = st.one_of(
    st.tuples(_FUZZ_MASS, _mostly(st.integers(1, 64), st.integers(-1, 0))).map(lambda ln: f"interval:L={ln[0]},N={ln[1]}"),
    st.lists(_FUZZ_MASS, min_size=1, max_size=4).map(lambda ms: "atoms:" + ",".join(ms)),
)
_FUZZ_FN = st.one_of(
    st.just("identity"),
    _FLOAT_TEXT.map(lambda v: f"constant:{v}"),
    st.tuples(st.integers(-1, 4), st.integers(-1, 65)).map(lambda ab: f"indicator:{ab[0]}..{ab[1]}"),
)
_FUZZ_SUITE = _mostly(
    st.one_of(st.just("all"), st.lists(st.sampled_from(nstar.CHECK_NAMES), min_size=1, max_size=3, unique=True).map(",".join)),
    st.sampled_from(["bogus", "", "all,bogus"]),
)


_FUZZ_SEED = _mostly(st.integers(0, 2**32 - 1).map(str), st.sampled_from(["-1", "x", ""]))
_FUZZ_TOL = _mostly(st.floats(0.0, allow_infinity=False).map(repr), _FLOAT_TEXT)
_FUZZ_GRID = [
    ("--grid-lo", _mostly(_POSITIVE, _FLOAT_TEXT)),
    ("--grid-hi", _mostly(_POSITIVE, _FLOAT_TEXT)),
    ("--grid-points", _mostly(st.integers(1, 50), st.integers(-1, 0))),
]
# each command's flags and their values; a|b names two spellings of one flag
_FUZZ_FLAGS = {
    "norm": [("--phi", _SHORTHAND_PHI), ("--space", _FUZZ_SPACE), ("--fn", _FUZZ_FN)],
    "metric": [("--phi", _SHORTHAND_PHI), ("--space", _FUZZ_SPACE), ("--fn", _FUZZ_FN), ("--fn2", _FUZZ_FN)],
    "delta2": [
        ("--phi", _SHORTHAND_PHI),
        *_FUZZ_GRID,
        ("--k0", _mostly(st.floats(2.0, exclude_min=True, allow_infinity=False).map(repr), _FLOAT_TEXT)),
    ],
    "check": [
        ("--phi", _SHORTHAND_PHI),
        ("--space", _FUZZ_SPACE),
        ("--suite", _FUZZ_SUITE),
        ("--samples", _mostly(st.integers(1, 2), st.integers(-1, 0))),
        ("--seed", _FUZZ_SEED),
        ("--tol", _FUZZ_TOL),
    ],
    "dual-norm": [
        ("--phi", _SHORTHAND_PHI),
        ("--space", _FUZZ_SPACE),
        ("--functional", st.lists(_COEFF, min_size=1, max_size=4).map(",".join)),
        ("--seed", _FUZZ_SEED),
        ("--tol", _FUZZ_TOL),
    ],
    "demo nonconvex": [
        ("--phi", _SHORTHAND_PHI),
        ("--space|--atoms", _FUZZ_SPACE),
        ("--epsilon", _mostly(_POSITIVE, _FLOAT_TEXT)),
        ("--n", _mostly(st.integers(1, 70), st.integers(-1, 0))),
    ],
    "demo dualzero": [
        ("--phi", _SHORTHAND_PHI),
        ("--space", _FUZZ_SPACE),
        ("--fn", _FUZZ_FN),
        ("--kernel", _FUZZ_FN),
        ("--theta", _mostly(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr), _FLOAT_TEXT)),
        ("--iterations", _mostly(st.integers(1, 8), st.integers(-1, 0))),
    ],
}


@st.composite
def _flag_argv(draw, commands, drop):
    """One of commands with drawn flag values; at most 64 cells, 2 samples,
    8 halving rounds and 50 grid points. With drop, each flag is kept with
    probability 7/8, so that missing required flags are drawn too."""
    command = draw(st.sampled_from(commands))
    argv = command.split()
    for names, values in _FUZZ_FLAGS[command]:
        if not drop or draw(st.integers(0, 7)) != 5:
            argv.append(f"{draw(st.sampled_from(names.split('|')))}={draw(values)}")
    return [*argv, "--format", "json"]


def _assert_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        strict_json(out.getvalue())


class TestFlagFuzz:
    # every flag given, so that each draw reaches the handler: the depth that
    # found the l1_embedding ZeroDivisionError
    @settings(max_examples=300, deadline=None)
    @given(_flag_argv(["metric", "delta2", "check"], drop=False))
    def test_exit_contract_all_flags(self, argv):
        _assert_exit_contract(argv)

    @settings(max_examples=500, deadline=None)
    @given(_flag_argv(sorted(_FUZZ_FLAGS), drop=True))
    def test_exit_contract(self, argv):
        _assert_exit_contract(argv)


class TestDemos:
    def test_dualzero_atomic_space_exits_two(self, capsys):
        # the wrong kind of --space is a usage error; it exited 1 with the library's message
        code = main(["demo", "dualzero", "--phi", "power:p=0.5", "--space", "atoms:1,2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "non-atomic model" in err

    def test_dualzero_kernel_past_the_float_range_exits_two(self):
        # below p ~ 0.0226 the built-in kernel 1/f0 overflows: it printed two numpy
        # RuntimeWarnings and "function values must be finite", and exited 1
        proc = run_child("-m", "nstar.cli", "demo", "dualzero", "--phi", "power:p=0.02", "--space", "interval:L=1,N=1000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: demo dualzero: ") and "kernel 1/f0 leaves the float range" in proc.stderr
        assert "--fn" in proc.stderr and "Warning" not in proc.stderr

    def test_nonconvex_final_modular(self, capsys):
        code, out = run_cli(
            capsys,
            "demo",
            "nonconvex",
            "--phi",
            "power:p=0.5",
            "--epsilon",
            "1",
            "--n",
            "100",
            "--atoms",
            "equal:100",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["final_modular"] == pytest.approx(10.0, rel=1e-9)

    def test_nonconvex_overflowing_bump_height_exits_two(self, capsys):
        # phi^-1(1.3 / (1/32)) = expm1(41.6^2) is past the float range
        argv = ["demo", "nonconvex", "--phi", "log_sqrt", "--space", "interval:L=1,N=64", "--epsilon", "1.3", "--n", "32"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "bump height phi^-1(41.6) on piece 1 overflows the float range" in err

    def test_nonconvex_underflowing_bump_height_exits_two(self, capsys):
        # phi^-1(1e-10) = 1e-1000 is 0 in floats; that used to read as a failed check (exit 1)
        argv = ["demo", "nonconvex", "--phi", "power:p=0.01", "--atoms", "atoms:1e10,1", "--epsilon", "1", "--n", "2"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "bump height phi^-1(1e-10) on piece 1 underflows to 0" in err

    @pytest.mark.parametrize("space", ["--space=interval:L=1,N=64", "--atoms=atoms:1,2,3"])
    def test_nonconvex_more_bumps_than_cells_exits_two(self, capsys, space):
        code = main(["demo", "nonconvex", "--phi", "power:p=0.5", space, "--n", "65"])
        err = capsys.readouterr().err
        assert code == 2
        assert "disjoint pieces" in err

    def test_dualzero_bounds_past_the_float_range_print_no_warning(self):
        # 2^(0.9 n) passes the float range in the decay curve and in the
        # product of the step bounds; both printed numpy RuntimeWarnings on stderr
        argv = ["--phi", "power:p=0.9", "--space", "interval:L=1,N=24576", "--fn", "constant:1e-300"]
        argv += ["--kernel", "constant:0", "--theta", "0.9998", "--iterations", "1200", "--format", "json"]
        proc = run_child("-m", "nstar.cli", "demo", "dualzero", *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads(proc.stdout)
        assert doc["cumulative_bound"] is None
        assert doc["results"][0]["bound"] is not None and doc["results"][-1]["bound"] is None

    def test_dualzero_trace_csv(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out = run_cli(
            capsys,
            "demo",
            "dualzero",
            "--phi",
            "power:p=0.5",
            "--space",
            "interval:L=1,N=4096",
            "--iterations",
            "8",
            "--format",
            "csv",
            "--out",
            str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == ["iteration", "modular", "functional_value", "bound"]
        assert len(rows) == 10  # header + steps 0..8
        modulars = [float(r[1]) for r in rows[1:]]
        assert modulars[-1] < modulars[0]

    def test_dualzero_theta_and_iterations_flags(self, capsys):
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=2048", "--format", "json"]
        code, out = run_cli(capsys, *argv, "--theta", repr(1.0 / 3.0), "--iterations", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == pytest.approx(1.0 / 3.0)
        assert doc["iterations"] == 6
        assert len(doc["results"]) == 7

    def test_dualzero_kernel_alone_runs_with_the_builtin_f0(self, capsys):
        phi, space = nstar.power_family(0.5), nstar.MeasureSpace.interval(1.0, 64)
        f0 = nstar.halving_instance(phi, space)[0]
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=64", "--format", "json"]
        code, out = run_cli(capsys, *argv, "--kernel", "constant:100", "--iterations", "2")
        assert code == 0
        start = json.loads(out)["results"][0]["functional_value"]
        assert start == pytest.approx(100.0 * float(np.dot(f0.values, space.masses)), rel=1e-11)

    def test_dualzero_kernel_builds_only_the_builtin_f0(self, capsys):
        # for power 0.02 the built-in kernel 1/f0 leaves the float range; building it
        # anyway, only to replace it with --kernel, made this valid instance exit 2
        argv = ["demo", "dualzero", "--phi", "power:p=0.02", "--space", "interval:L=1,N=1000", "--format", "json"]
        code, out = run_cli(capsys, *argv, "--kernel", "constant:1000")
        assert code == 0
        doc = json.loads(out)
        values = [r["functional_value"] for r in doc["results"]]
        assert doc["pass"] and len(values) == 21
        assert values[0] == pytest.approx(1.2172785608, rel=1e-9)
        assert values[-1] == pytest.approx(7.02881512592e5, rel=1e-9)

    def test_dualzero_omitted_flags_take_the_defaults(self, capsys):
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=64", "--format", "json"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == inspect.signature(dual_zero_halving).parameters["theta"].default
        assert doc["iterations"] == 20
        assert run_cli(capsys, *argv, "--theta", "0.5", "--iterations", "20") == (0, out)

    def test_dualzero_fn_alone_exits_two(self, capsys):
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=64", "--fn", "constant:1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: demo dualzero: --fn needs --kernel; --kernel alone runs with the built-in f0\n"
        )

    @pytest.mark.parametrize("how", ["kernel", "both"])
    def test_dualzero_functional_below_one_exits_two(self, capsys, how):
        # f0 * kernel integrates to the built-in f0's mean (kernel) or 0.5 (both): input, not a failed check
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=64", "--kernel"]
        argv += ["constant:1"] if how == "kernel" else ["constant:0.5", "--fn", "constant:1"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "functional value" in err

    def test_dualzero_zero_modular_exits_two(self, capsys):
        # f0 = x is 0 on one cell of mass 5e-324: the modular ratio was 0/0, a ZeroDivisionError
        argv = ["demo", "dualzero", "--phi", "log_sqrt", "--space", "interval:L=5e-324,N=1"]
        assert main([*argv, "--fn", "identity", "--kernel", "identity"]) == 2
        assert "f0 has modular 0" in capsys.readouterr().err

    def test_dualzero_overflowing_functional_exits_two(self, capsys):
        # the functional value L^3 / 4 of the given f0 and kernel overflows at the start: an input error
        argv = ["demo", "dualzero", "--phi", "log_sqrt", "--space", "interval:L=8.958978968711217e+102,N=1"]
        code = main([*argv, "--fn", "identity", "--kernel", "identity", "--iterations", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "functional value is 0 or finite and at least 1" in captured.err

    def test_dualzero_doubled_functional_overflow_exits_one(self, capsys):
        # the functional value L^3 / 4 is finite but overflows once doubled; that printed a trace
        argv = ["demo", "dualzero", "--phi", "log_sqrt", "--space", "interval:L=7.110746319746581e+102,N=1"]
        code = main([*argv, "--fn", "identity", "--kernel", "identity", "--iterations", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "overflows the float range" in captured.err

    def test_dualzero_rounding_in_the_functional_value_passes(self, capsys):
        # f0 and the kernel are mirror images, so both halves carry the same
        # functional value, about 8e12, and the kept half doubled comes back
        # one ulp (2^-10) below the whole. A fixed bound of 1e-6 on the drop
        # read that as FAIL with exit 1; each step may lose DEMO_TOL of it
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=6", "--iterations", "1"]
        argv += ["--fn", "values:1,2,1,1,2,1", "--kernel", "values:1e12,5e12,3e12,3e12,5e12,1e12"]
        code, out = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert payload["functional_drop"] == -(2.0**-10)
        assert payload["pass"] is True
        assert code == 0

    def test_dualzero_deterministic_bytes(self, capsys):
        args = (
            "demo",
            "dualzero",
            "--phi",
            "power:p=0.5",
            "--space",
            "interval:L=1,N=2048",
            "--iterations",
            "5",
            "--format",
            "json",
        )
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2


# errors.__all__ names whose class means "the inputs lie outside what the operation accepts"
_ARGUMENT_ERRORS = {"DomainError"}


class TestExitCodes:
    @pytest.mark.parametrize("name", errors.__all__)
    def test_error_class_decides_the_exit_code(self, capsys, monkeypatch, name):
        # 2 for an argument error, wherever it is raised; 1 for a computation that could not certify its result
        def handler(args):
            raise getattr(errors, name)("raised by the handler")

        monkeypatch.setattr("nstar.cli._cmd_norm", handler)
        code = main(["norm", "--phi", "power:p=0.5", "--space", "atoms:1", "--fn", "constant:1"])
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: raised by the handler\n")
        assert code == (2 if name in _ARGUMENT_ERRORS else 1)

    @pytest.mark.parametrize(
        "site, code, message",
        [
            # one library raise site of each class that was folded into its kind
            pytest.param("document", 2, "--fn 'indicator:3': indicator needs lo..hi", id="document"),
            pytest.param("space-mismatch", 2, "function does not live on the given space", id="space-mismatch"),
            pytest.param("atomic-space", 2, "the halving construction needs the non-atomic model", id="atomic-space"),
            pytest.param("increasing-density", 2, "complementation requires a non-negative, non-increasing density", id="increasing-density"),
            pytest.param("diverged-integral", 1, "mass below the smallest normal float is not negligible", id="diverged-integral"),
            pytest.param("not-delta2", 1, r"doubling hypothesis 2*phi(x) <= phi(k0*x) fails", id="not-delta2"),
        ],
    )
    def test_library_raise_site_decides_the_exit_code(self, capsys, monkeypatch, site, code, message):
        # the kind a library function raises, not the CLI, decides the exit code; the message passes through
        atoms = MeasureSpace.atomic([1.0, 1.0])
        raisers = {
            "document": lambda: fn_from_text("indicator:3", MeasureSpace.interval(1.0, 4), "--fn"),
            "space-mismatch": lambda: integrate(
                MeasureSpace.interval(1.0, 10), lambda v: v, MeasurableFn.constant(MeasureSpace.interval(1.0, 11), 1.0)
            ),
            "atomic-space": lambda: dual_zero_halving(
                power_family(0.5), atoms, MeasurableFn.constant(atoms, 2.0), MeasurableFn.constant(atoms, 1.0), 3, 0.5
            ),
            "increasing-density": lambda: complementary(from_density(lambda t: np.asarray(t, float) ** 0.5)),
            "diverged-integral": lambda: CumulativeIntegral(lambda t: 1.0 / t)(1.0),
            "not-delta2": lambda: delta2_solve(power_family(0.5), 3.0, np.geomspace(1e-3, 1e3, 25)),
        }

        def handler(args):
            raisers[site]()

        monkeypatch.setattr("nstar.cli._cmd_norm", handler)
        got = main(["norm", "--phi", "power:p=0.5", "--space", "atoms:1", "--fn", "constant:1"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert got == code

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self, capsys):
        assert main(["norm", "--space", "atoms:1", "--fn", "constant:1"]) == 2

    def test_entry_point_runs(self):
        # the child imports the same package as this process, installed or not
        proc = run_child("-m", "nstar.cli", "norm", "--phi", "power:p=0.5", "--space", "atoms:1", "--fn", "constant:2")
        assert proc.returncode == 0
        assert "norm = 2" in proc.stdout

    def test_import_does_not_load_scipy(self):
        # numpy is the only runtime dependency; importing scipy.interpolate
        # alone would cost every process about 0.7 s
        proc = run_child("-c", "import nstar, nstar.cli, sys; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            "norm --phi power:p=0.5 --space interval:L=1,N=1000 --fn constant:abc",
            "norm --phi power:p=0.5 --space interval:L=1,N=1000 --fn indicator:a..b",
            "validate --phi power:p=0.5 --grid-points 0",
            "validate --phi power:p=0.5 --grid-points 1",
            "conjugate --phi power:p=0.5 --grid-lo 0",
            "delta2 --phi power:p=0.5 --grid-hi inf",
            # document numbers must be finite
            "norm --phi power:p=0.5 --space interval:L=inf --fn identity",
            # the cell width L/N underflows to 0
            "norm --phi power:p=0.5 --space interval:L=5e-324,N=2 --fn identity",
            "norm --phi power:p=0.5 --space atoms:nan --fn constant:1",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn constant:nan",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn constant:inf",
            "norm --phi power:p=0.5 --space interval:L=1,N=2 --fn values:1,nan",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:low=0,high=inf,seed=1",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:low=5,high=1,seed=1",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:low=-1e308,high=1e308,seed=1",
            # numpy seeds take no sign
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:seed=-1",
            # --k0 is checked by delta2_solve, whose DomainError exits 2
            "delta2 --phi power:p=0.5 --k0 1",
            "delta2 --phi power:p=0.5 --k0 2",
            "delta2 --phi power:p=0.5 --k0 nan",
            "delta2 --phi power:p=0.5 --k0 inf",
            "delta2 --phi power:p=0.5 --k0 1.5",
            "delta2 --phi power:p=0.5 --k0 1e308",
            # numeric flags are checked by the demo functions, whose DomainError exits 2
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --theta 1.5",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --theta 0",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --iterations 0",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --iterations -1",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --epsilon 0",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --epsilon nan",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --epsilon inf",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --n 0",
        ],
    )
    def test_malformed_shorthand_and_grid_exit_two(self, capsys, argv):
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("norm --phi power:p=0.5 --space interval:L=5e-324,N=2 --fn identity", "--space: masses and cell widths"),
            # an empty list item is rejected and named, in every shorthand list
            ("norm --phi power:p=0.5 --space atoms:1,,2 --fn constant:1", "'atoms:1,,2' item 2: expected a number"),
            ("norm --phi power:p=0.5 --space interval:L=1,N=3 --fn values:1,,2", "'values:1,,2' item 2: expected"),
            ("dual-norm --phi power:p=0.5 --space atoms:1,2,3 --functional 1,,2", "--functional item 2: expected"),
            # sizes no host can allocate
            (
                "norm --phi power:p=0.5 --space interval:L=1,N=100000000000000000000 --fn constant:1",
                "--space: cell count too large to allocate",
            ),
            ("norm --phi power:p=0.5 --space equal:100000000000000000000 --fn constant:1", "too large to allocate"),
            ("norm --phi power:p=0.5 --space equal:2305843009213693952 --fn constant:1", "too large to allocate"),
            # shorthand syntax
            ("norm --phi power:p=0.5 --space equal:abc --fn constant:1", "--space 'equal:abc': equal:COUNT needs"),
            ("norm --phi power:p=0.5 --space interval:L=1,N=3 --fn indicator:3", "--fn 'indicator:3': indicator needs"),
            # each function flag names itself
            (
                "metric --phi power:p=0.5 --space interval:L=1,N=3 --fn constant:1 --fn2 constant:abc",
                "error: --fn2 'constant:abc': expected a number",
            ),
            (
                "demo dualzero --phi power:p=0.5 --space interval:L=1,N=4 --fn constant:1 --kernel indicator:0..9",
                "error: --kernel indicator: indicator range out of bounds",
            ),
            # the space, not the coefficients, is what an atomic functional cannot take
            (
                "dual-norm --phi power:p=0.5 --space interval:L=1,N=3 --functional 1,1,1",
                "error: atomic functionals require an atomic space",
            ),
        ],
    )
    def test_value_errors_name_their_flag(self, capsys, argv, message):
        code = main(argv.split())
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t, p",
        [
            ("[0, 1, 2]", "[3, 2, 1]"),
            ("[1, NaN, 3]", "[3, 2, 1]"),
            ("[1, 2, 3]", "[3, NaN, 1]"),
            ("[1, 2, Infinity]", "[3, 2, 1]"),
            ("[1, 2]", "[4, 1]"),
        ],
        ids=["zero_t", "nan_t", "nan_p", "inf_t", "not_integrable"],
    )
    def test_bad_tabulated_density_samples_exit_two(self, capsys, tmp_path, t, p):
        doc = tmp_path / "phi.json"
        doc.write_text(f'{{"family": "tabulated_density", "params": {{"t": {t}, "p": {p}}}}}')
        code = main(["validate", "--phi", str(doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("tabulated", [True, False], ids=["tabulated", "power"])
    def test_quasi_norm_overflow_reads_as_overflow(self, capsys, tmp_path, tabulated):
        # f/lambda overflows below the norm; a tabulated generator rejects an infinite argument
        doc = tmp_path / "phi.json"
        doc.write_text('{"family": "tabulated_density", "params": {"t": [0.01, 1, 100], "p": [5, 0.5, 0.05]}}')
        phi = str(doc) if tabulated else "power:p=0.5"
        code = main(["norm", "--phi", phi, "--space", "atoms:1e-300", "--fn", "constant:1e300"])
        err = capsys.readouterr().err
        assert code == 1
        assert "f/lambda overflows before the modular comes down to 1" in err

    def test_non_integrable_table_exits_two_for_norm(self, capsys, tmp_path):
        # the low-edge slope -2 makes the integral diverge at 0
        doc = tmp_path / "phi.json"
        doc.write_text('{"family": "tabulated_density", "params": {"t": [1, 2], "p": [4, 1]}}')
        code = main(["norm", "--phi", str(doc), "--space", "interval:L=1,N=10", "--fn", "identity"])
        err = capsys.readouterr().err
        assert code == 2
        assert "diverges at 0" in err


class TestSettingsNothingReads:
    """Flags and fields that no command reads are rejected, not ignored."""

    @pytest.mark.parametrize(
        "argv",
        [
            "norm --phi power:p=0.5 --space atoms:1 --fn constant:1 --seed 1",
            "norm --phi power:p=0.5 --space atoms:1 --fn constant:1 --tol 1e-3",
            "metric --phi power:p=0.5 --space atoms:1 --fn constant:1 --fn2 constant:0 --seed 1",
            "conjugate --phi power:p=0.5 --tol 1e-3",
            "delta2 --phi power:p=0.25 --tol 1e-3",
            "delta2 --phi power:p=0.25 --seed 1",
            "validate --phi power:p=0.5 --tol 1e-3",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --seed 1",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --tol 1e-3",
            # each demo takes only its own flags
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --theta 0.3",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --iterations 3",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --kernel constant:1",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --fn constant:1",
            "demo nonconvex --phi power:p=0.5 --atoms equal:10 --config demo.json",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --epsilon 1",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --n 3",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --atoms equal:64",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --seed 1",
            # every setting has its flag; no command reads a settings document
            "check --phi power:p=0.5 --space atoms:1 --config suite.json",
            "demo dualzero --phi power:p=0.5 --space interval:L=1,N=64 --config demo.json",
        ],
    )
    def test_unread_flag_exits_two(self, capsys, argv):
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "validate --phi power:p=0.5 --seed 3",
            "check --phi power:p=0.5 --space atoms:1,1 --suite reversed_jensen --samples 3 --seed 3 --tol 1e-6",
            "dual-norm --phi power:p=0.5 --space atoms:1,2 --functional 1,1 --seed 3 --tol 1e-6",
        ],
    )
    def test_read_flags_stay(self, capsys, argv):
        assert main(argv.split()) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "validate --phi power:p=0.5 --seed -1",
            "check --phi power:p=0.5 --space atoms:1,1 --suite young_type --seed -1",
            "dual-norm --phi power:p=0.5 --space atoms:1,2 --functional 1,1 --seed -1",
            "dual-norm --phi power:p=0.5 --space atoms:1,2 --functional 1,1 --seed x",
        ],
    )
    def test_bad_seed_exits_two(self, capsys, argv):
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert "--seed: expected a non-negative integer" in err

    def test_generator_quad_field_exits_two(self, capsys, tmp_path):
        doc = tmp_path / "phi.json"
        doc.write_text(json.dumps({"family": "log_sqrt", "params": {}, "quad": {"tol": 0.5, "mesh_ratio": 0.9}}))
        code = main(["validate", "--phi", str(doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown fields ['quad']" in err


class TestFlagsEachCommandReads:
    """Each command declares exactly the flags its handler reads and requires the ones it needs."""

    @pytest.mark.parametrize(
        "argv, missing",
        [
            ("norm --phi power:p=0.5 --fn constant:1", "--space"),
            ("norm --phi power:p=0.5 --space atoms:1", "--fn"),
            ("metric --phi power:p=0.5 --fn constant:1 --fn2 constant:0", "--space"),
            ("metric --phi power:p=0.5 --space atoms:1 --fn2 constant:0", "--fn"),
            ("dual-norm --phi power:p=0.5 --functional 1", "--space"),
            ("demo dualzero --phi power:p=0.5", "--space"),
            ("demo nonconvex --phi power:p=0.5", "--space/--atoms"),
        ],
    )
    def test_missing_flag_exits_two(self, capsys, argv, missing):
        # all but the last raised AttributeError on the missing argument
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.rstrip().endswith(f"the following arguments are required: {missing}")

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("prefix", ["@", ""])
    def test_functional_path_matches_inline(self, capsys, tmp_path, fmt, prefix):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"coefficients": [1, -2, 0.5]}))
        argv = ["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:0.25,1,2", "--format", fmt]
        inline = run_cli(capsys, *argv, "--functional", "1,-2,0.5")
        assert inline[0] == 0
        assert run_cli(capsys, *argv, "--functional", f"{prefix}{path}") == inline

    def test_readme_flags_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `([a-z0-9 -]+)` \| (.+) \|$", readme, re.MULTILINE))
        parsers = dict(_leaf_parsers(build_parser()))
        assert sorted(rows) == sorted(parsers)
        for name, parser in parsers.items():
            flags = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help", "--format", "--out"}
            assert set(re.findall(r"`(--[a-z0-9-]+)`", rows[name])) == flags, name


def _leaf_parsers(parser, words=()):
    """(command words, parser) for each command, and each demo under demo."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, (*words, name))
            return
    yield " ".join(words), parser


class TestSlackTolerance:
    """A slack tolerance must be finite and non-negative, or the run is a usage error."""

    CHECK = ["check", "--phi", "power:p=0.5", "--space", "interval:L=1,N=100", "--suite", "young_type"]
    DUAL = ["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:1,2", "--functional", "1,1"]

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400"])
    def test_check_flag(self, capsys, tol):
        code = main([*self.CHECK, "--tol", tol])
        err = capsys.readouterr().err
        assert code == 2
        assert "--tol must be finite and non-negative" in err

    def test_check_flag_zero_is_accepted(self, capsys):
        # every young_type slack here lies in 0.65..1.12
        assert main([*self.CHECK, "--tol", "0"]) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400"])
    def test_dual_norm_flag(self, capsys, tol):
        code = main([*self.DUAL, "--tol", tol])
        err = capsys.readouterr().err
        assert code == 2
        assert "--tol must be finite and non-negative" in err

    def test_dual_norm_default_passes(self, capsys):
        assert main(self.DUAL) == 0


class TestMisspeltParameters:
    """Every shorthand key and document field outside the known set exits 2 and is named."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            ("norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:seed=1,hi=100", "hi"),
            ("norm --phi power:p=0.5,alpha=3 --space interval:L=1,N=10 --fn identity", "alpha"),
            ("norm --phi power:p=0.5 --space interval:L=1,N=10,M=3 --fn identity", "M"),
            ("norm --phi power:p=0.5 --space equal:3,mas=2 --fn constant:1", "mas"),
            ("norm --phi log_sqrt:p=0.5 --space atoms:1 --fn constant:1", "p"),
            ("validate --phi alpha_exp:alpha=3,p=0.5", "p"),
        ],
    )
    def test_shorthand(self, capsys, argv, field):
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown fields ['{field}']" in err

    @pytest.mark.parametrize(
        "flag, doc",
        [
            ("--phi", {"family": "power", "params": {"p": 0.5, "q": 1}}),
            ("--phi", {"family": "power", "params": {"p": 0.5}, "name": "x"}),
            ("--space", {"kind": "interval", "L": 1, "N": 10, "M": 3}),
            ("--space", {"kind": "atomic", "masses": [1], "L": 1}),
            ("--fn", {"values": [1.0] * 10, "generator": "identity"}),
            ("--fn", {"generator": "constant", "params": {"valeu": 2}}),
            ("--fn", {"generator": "identity", "params": {"lo": 0}}),
            ("--fn", {"generator": "indicator", "params": {"lo": 0, "high": 5}}),
        ],
    )
    def test_document(self, capsys, tmp_path, flag, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        args = {"--phi": "power:p=0.5", "--space": "interval:L=1,N=10", "--fn": "identity", flag: str(path)}
        code = main(["norm", *[x for kv in args.items() for x in kv]])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown fields" in err

    def test_functional_document(self, capsys, tmp_path):
        path = tmp_path / "functional.json"
        path.write_text(json.dumps({"coefficients": [1, 1], "scale": 2}))
        code = main(["dual-norm", "--phi", "power:p=0.5", "--space", "atoms:1,2", "--functional", str(path)])
        assert code == 2
        assert "unknown fields ['scale']" in capsys.readouterr().err

    def test_function_generator_of_wrong_type_exits_two(self, capsys, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps({"generator": []}))
        assert main(["norm", "--phi", "power:p=0.5", "--space", "atoms:1", "--fn", str(path)]) == 2
        assert "--fn.generator: expected" in capsys.readouterr().err

    def test_wrong_parameter_type_exits_two(self, capsys, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"family": "power", "params": {"p": "0.5"}}))
        code = main(["validate", "--phi", str(path)])
        assert code == 2
        assert "params.p: expected a number" in capsys.readouterr().err


# -- document fuzz ------------------------------------------------------------

_VALID_DOCS = {
    "phi": [
        {"family": "power", "params": {"p": 0.5}},
        {"family": "alpha_exp", "params": {"alpha": 3}},
        {"family": "log_sqrt", "params": {}},
        {"family": "tabulated_density", "params": {"t": [0.01, 1.0, 100.0], "p": [5.0, 0.5, 0.05]}},
    ],
    "space": [
        {"kind": "interval", "L": 1, "N": 16},
        {"kind": "atomic", "masses": [0.5, 1.0, 2.0]},
    ],
    "fn": [
        {"generator": "identity"},
        {"generator": "constant", "params": {"value": 2.0}},
        {"generator": "indicator", "params": {"lo": 0, "hi": 2}},
        {"generator": "random", "params": {"seed": 1, "low": 0, "high": 5}},
        {"values": [1.0, 2.0, 3.0]},
    ],
}
# wrong types, non-finite and boundary numbers; none can make a large space
_ODD_VALUES = [None, True, "abc", "0.5", [], [1.0], {}, {"a": 1}, -1, 0, 2, 0.5, -0.5, 1e308, 1e-320]
_ODD_VALUES += [float("nan"), float("inf"), float("-inf")]


def _paths(doc, prefix=()):
    """Every (path, value) of a JSON document, objects and lists descended."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def _mutated_doc(draw):
    kind = draw(st.sampled_from(sorted(_VALID_DOCS)))
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_DOCS[kind]))))
    for _ in range(draw(st.integers(0, 3))):
        paths = [p for p, _ in _paths(doc)]
        path = draw(st.sampled_from(paths))
        target = _parent(doc, path) if path else None
        action = draw(st.sampled_from(["replace", "extra", "misspell", "delete"] if path else ["extra"]))
        # a fresh copy each time: a shared list or object would alias parts of the document
        odd = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        if action == "replace":
            target[path[-1]] = odd
        elif action == "extra":
            holder = _parent(doc, (*path, None))
            holder = holder if isinstance(holder, dict) else doc if isinstance(doc, dict) else None
            if holder is not None:
                holder[draw(st.sampled_from(["quad", "seed", "mass", "hi", "tol", "x"]))] = odd
        elif isinstance(target, dict):
            value = target.pop(path[-1])
            if action == "misspell":
                target[str(path[-1]) + draw(st.sampled_from(["s", "_", "X"]))] = value
    return kind, doc


_FUZZ_ARGV = {
    "phi": [["validate", "--grid-points", "9"], ["norm", "--space", "atoms:1,2", "--fn", "constant:1"]],
    "space": [["norm", "--phi", "power:p=0.5", "--fn", "constant:1"]],
    "fn": [["norm", "--phi", "power:p=0.5", "--space", "interval:L=1,N=3"]],
}


class TestDocumentFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_mutated_doc(), st.integers(0, 1))
    def test_exit_contract(self, tmp_path_factory, kind_doc, which):
        kind, doc = kind_doc
        path = tmp_path_factory.getbasetemp() / "document_fuzz.json"
        # json.dumps writes NaN and Infinity, which load_json reads back
        path.write_text(json.dumps(doc))
        argv = _FUZZ_ARGV[kind][which % len(_FUZZ_ARGV[kind])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, f"--{kind}", str(path), "--format", "json"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            strict_json(out.getvalue())
