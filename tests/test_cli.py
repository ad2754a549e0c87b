import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nstar
from nstar.cli import main
from nstar.documents import parse_check_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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

    def test_unreachable_level_reports_failure(self, capsys):
        code, out = run_cli(capsys, "validate", "--phi", "power:p=1e-300")
        assert code == 1
        assert "FAIL  inverse_midpoint_convex" in out
        assert "overall: FAIL" in out


class TestDelta2:
    def test_power_quarter(self, capsys):
        code, out = run_cli(capsys, "delta2", "--phi", "power:p=0.25", "--k0", "20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "exact_global"
        assert doc["k_global"] == pytest.approx(16.0, abs=1e-9)


class TestConjugate:
    def test_numeric_against_reference(self, capsys):
        code, out = run_cli(
            capsys,
            "conjugate",
            "--phi",
            "power_scaled:p=0.5",
            "--numeric",
            "--grid-points",
            "5",
            "--format",
            "json",
        )
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
        records = parse_check_records(json.loads(out1))
        assert {r["name"] for r in records} == {"young_type", "reversed_jensen", "intersection"}

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

    def test_config_document(self, capsys, tmp_path):
        cfg = {
            "phi": {"family": "power", "params": {"p": 0.5}},
            "space": {"kind": "atomic", "masses": [1.0, 0.5]},
            "checks": ["young_type"],
            "samples": 5,
            "seed": 2,
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "check", "--config", str(path))
        assert code == 0

    def test_zero_samples_exit_two(self, capsys):
        code = main(["check", "--phi", "power:p=0.5", "--space", "atoms:1,2", "--samples", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "samples" in err
        assert "Traceback" not in err

    def test_zero_samples_in_config_exit_two(self, capsys, tmp_path):
        cfg = {
            "phi": {"family": "power", "params": {"p": 0.5}},
            "space": {"kind": "atomic", "masses": [1.0, 0.5]},
            "samples": 0,
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(cfg))
        code = main(["check", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "samples" in err
        assert "Traceback" not in err

    def test_malformed_config_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "check", "--config", str(path))
        assert code == 2


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


class TestDemos:
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

    def test_dualzero_demo_config_document(self, capsys, tmp_path):
        cfg = {"theta": 1.0 / 3.0, "iterations": 6, "epsilon": 1.0, "seed": 0}
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(
            capsys,
            "demo",
            "dualzero",
            "--phi",
            "power:p=0.5",
            "--space",
            "interval:L=1,N=2048",
            "--config",
            str(path),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"] == pytest.approx(1.0 / 3.0)
        assert doc["iterations"] == 6
        assert len(doc["results"]) == 7

    def test_dualzero_zero_iterations_in_config_exit_two(self, capsys, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"iterations": 0}))
        argv = ["demo", "dualzero", "--phi", "power:p=0.5", "--space", "interval:L=1,N=64"]
        code = main([*argv, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "iterations" in err

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


class TestEnvironmentTolerance:
    def test_default_tol_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NSTAR_DEFAULT_TOL", "1e-6")
        code, _ = run_cli(
            capsys,
            "check",
            "--phi",
            "power:p=0.5",
            "--space",
            "atoms:1,1",
            "--suite",
            "reversed_jensen",
            "--samples",
            "3",
        )
        assert code == 0

    def test_garbage_tol_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NSTAR_DEFAULT_TOL", "soon")
        code, _ = run_cli(
            capsys,
            "check",
            "--phi",
            "power:p=0.5",
            "--space",
            "atoms:1,1",
            "--suite",
            "reversed_jensen",
            "--samples",
            "3",
        )
        assert code == 2


class TestExitCodes:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self, capsys):
        assert main(["norm", "--space", "atoms:1", "--fn", "constant:1"]) == 2

    def test_entry_point_runs(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(nstar.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nstar.cli", "norm", "--phi", "power:p=0.5", "--space", "atoms:1", "--fn", "constant:2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "norm = 2" in proc.stdout

    def test_import_does_not_load_scipy(self):
        # numpy is the only runtime dependency; importing scipy.interpolate
        # alone would cost every process about 0.7 s
        src = str(Path(nstar.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import nstar, nstar.cli, sys; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
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
            "norm --phi power:p=0.5 --space atoms:nan --fn constant:1",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn constant:nan",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn constant:inf",
            "norm --phi power:p=0.5 --space interval:L=1,N=2 --fn values:1,nan",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:low=0,high=inf,seed=1",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:low=5,high=1,seed=1",
            "norm --phi power:p=0.5 --space interval:L=1,N=10 --fn random:low=-1e308,high=1e308,seed=1",
            # numeric flags are checked before the library runs
            "delta2 --phi power:p=0.5 --k0 1",
            "delta2 --phi power:p=0.5 --k0 2",
            "delta2 --phi power:p=0.5 --k0 nan",
            "delta2 --phi power:p=0.5 --k0 inf",
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
        "t, p",
        [("[0, 1, 2]", "[3, 2, 1]"), ("[1, NaN, 3]", "[3, 2, 1]"), ("[1, 2, 3]", "[3, NaN, 1]"), ("[1, 2, Infinity]", "[3, 2, 1]")],
        ids=["zero_t", "nan_t", "nan_p", "inf_t"],
    )
    def test_bad_tabulated_density_samples_exit_two(self, capsys, tmp_path, t, p):
        doc = tmp_path / "phi.json"
        doc.write_text(f'{{"family": "tabulated_density", "params": {{"t": {t}, "p": {p}}}}}')
        code = main(["validate", "--phi", str(doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
