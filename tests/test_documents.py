import ast
import json
from pathlib import Path

import numpy as np
import pytest

import nstar
from nstar import DomainError, MeasureSpace
from nstar.documents import (
    fn_from_text,
    fn_shorthand_to_doc,
    json_ready,
    parse_fn_doc,
    parse_phi_doc,
    parse_space_doc,
    phi_from_text,
    phi_shorthand_to_doc,
    space_from_text,
    space_shorthand_to_doc,
)


class TestPhiDoc:
    def test_power_doc(self):
        phi = parse_phi_doc({"family": "power", "params": {"p": 0.5}})
        assert float(phi(4.0)) == pytest.approx(2.0)

    def test_quad_field_is_unknown(self):
        # every family evaluates in closed form, so there are no quadrature settings to take
        with pytest.raises(DomainError, match=r"unknown fields \['quad'\]"):
            parse_phi_doc({"family": "log_sqrt", "params": {}, "quad": {"tol": 0.5, "mesh_ratio": 0.9}})

    def test_tabulated_density_doc(self):
        ts = np.geomspace(1e-6, 1e6, 30)
        doc = {
            "family": "tabulated_density",
            "params": {"t": list(ts), "p": list(0.5 * ts**-0.5)},
        }
        phi = parse_phi_doc(doc)
        assert float(phi(4.0)) == pytest.approx(2.0, rel=1e-7)

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="family"):
            parse_phi_doc({"family": "mystery"})

    def test_missing_param(self):
        with pytest.raises(DomainError, match="p"):
            parse_phi_doc({"family": "power", "params": {}})

    def test_bad_quad_field(self):
        with pytest.raises(DomainError, match="quad"):
            parse_phi_doc({"family": "log_sqrt", "quad": {"tol": 2.0}})


class TestSpaceDoc:
    def test_atomic(self):
        X = parse_space_doc({"kind": "atomic", "masses": [0.5, 0.25]})
        assert X.is_atomic and X.total_mass == 0.75

    def test_interval(self):
        X = parse_space_doc({"kind": "interval", "L": 2.0, "N": 100})
        assert not X.is_atomic and X.size == 100

    def test_bad_kind(self):
        with pytest.raises(DomainError, match="kind"):
            parse_space_doc({"kind": "manifold"})

    def test_missing_kind(self):
        # the message every other document gives for a missing field
        with pytest.raises(DomainError, match="^space: missing required field 'kind'$"):
            parse_space_doc({"masses": [1.0]})

    def test_nonpositive_mass(self):
        with pytest.raises(DomainError, match="masses"):
            parse_space_doc({"kind": "atomic", "masses": [1.0, -2.0]})

    # an integer past the float range would overflow in float()
    @pytest.mark.parametrize("length", [float("inf"), float("nan"), 10**400], ids=["inf", "nan", "huge_int"])
    def test_non_finite_length(self, length):
        with pytest.raises(DomainError, match="finite"):
            parse_space_doc({"kind": "interval", "L": length, "N": 10})


class TestFnDoc:
    def setup_method(self):
        self.X = MeasureSpace.interval(1.0, 8)

    def test_values(self):
        f = parse_fn_doc({"values": [1.0] * 8}, self.X)
        assert f.values.sum() == 8.0

    def test_values_length_checked(self):
        with pytest.raises(DomainError, match="values"):
            parse_fn_doc({"values": [1.0] * 5}, self.X)

    def test_generators(self):
        assert parse_fn_doc({"generator": "constant", "params": {"value": 2.0}}, self.X).values[0] == 2.0
        assert parse_fn_doc({"generator": "identity"}, self.X).values[0] == pytest.approx(1 / 16)
        ind = parse_fn_doc({"generator": "indicator", "params": {"lo": 0, "hi": 4}}, self.X)
        assert ind.values.sum() == 4.0
        r1 = parse_fn_doc({"generator": "random", "params": {"seed": 5}}, self.X)
        r2 = parse_fn_doc({"generator": "random", "params": {"seed": 5}}, self.X)
        assert np.array_equal(r1.values, r2.values)

    def test_random_needs_seed(self):
        with pytest.raises(DomainError, match="seed"):
            parse_fn_doc({"generator": "random"}, self.X)

    @pytest.mark.parametrize("low, high", [(5.0, 1.0), (-1e308, 1e308)])
    def test_random_needs_a_finite_ordered_range(self, low, high):
        with pytest.raises(DomainError, match="low <= high"):
            parse_fn_doc({"generator": "random", "params": {"seed": 1, "low": low, "high": high}}, self.X)

    def test_identity_needs_interval(self):
        with pytest.raises(DomainError, match="identity"):
            parse_fn_doc({"generator": "identity"}, MeasureSpace.atomic([1.0]))


class TestShorthand:
    def test_phi_shorthand(self):
        assert phi_shorthand_to_doc("power:p=0.5") == {"family": "power", "params": {"p": 0.5}}
        phi = phi_from_text("power_scaled:p=0.25")
        assert phi.description == "power_scaled(p=0.25)"

    def test_space_shorthand(self):
        assert space_shorthand_to_doc("interval:L=1,N=1000") == {
            "kind": "interval",
            "L": 1,
            "N": 1000,
        }
        assert space_shorthand_to_doc("atoms:0.5,0.25") == {
            "kind": "atomic",
            "masses": [0.5, 0.25],
        }
        eq = space_shorthand_to_doc("equal:3")
        assert eq == {"kind": "atomic", "masses": [1.0, 1.0, 1.0]}
        assert space_from_text("equal:100,mass=0.01").total_mass == pytest.approx(1.0)

    def test_fn_shorthand(self):
        assert fn_shorthand_to_doc("identity", "--fn") == {"generator": "identity"}
        assert fn_shorthand_to_doc("constant:3", "--fn") == {"generator": "constant", "params": {"value": 3.0}}
        assert fn_shorthand_to_doc("indicator:0..5", "--fn") == {
            "generator": "indicator",
            "params": {"lo": 0, "hi": 5},
        }
        assert fn_shorthand_to_doc("values:1,2,3", "--fn") == {"values": [1.0, 2.0, 3.0]}

    @pytest.mark.parametrize("flag, text", [("--fn2", "constant:abc"), ("--kernel", "indicator:3")])
    def test_fn_errors_name_the_flag_read(self, flag, text):
        with pytest.raises(DomainError, match=f"^{flag} '{text}': "):
            fn_shorthand_to_doc(text, flag)
        with pytest.raises(DomainError, match=f"^{flag} '{text}': "):
            fn_from_text(text, MeasureSpace.interval(1.0, 4), flag)

    def test_bad_shorthand(self):
        with pytest.raises(DomainError, match="^--space 'circle:r=1': expected interval:/atoms:/equal: shorthand$"):
            space_from_text("circle:r=1")
        with pytest.raises(DomainError, match="^--fn 'spline:3': expected key=value, got '3'$"):
            fn_from_text("spline:3", MeasureSpace.interval(1.0, 4), "--fn")
        with pytest.raises(DomainError, match="^--phi 'power:p=abc' p: expected a number, got 'abc'$"):
            phi_from_text("power:p=abc")

    def test_json_file_accepted(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"family": "power", "params": {"p": 0.5}}))
        phi = phi_from_text(str(path))
        assert float(phi(4.0)) == pytest.approx(2.0)
        phi_at = phi_from_text("@" + str(path))
        assert float(phi_at(4.0)) == pytest.approx(2.0)


class TestReportSchema:
    def test_twelve_digit_rounding(self):
        out = json_ready({"v": 0.12345678901234567})
        assert out["v"] == float("0.123456789012")

    def test_non_finite_floats_become_null(self):
        out = json_ready({"v": [float("nan"), np.inf, -np.inf, np.float64("nan"), 1.5]})
        assert out["v"] == [None, None, None, None, 1.5]


SRC = Path(nstar.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_private_name_crosses_a_module_boundary(module):
    # an underscore name belongs to its own module; another nstar module imports only public names
    tree = ast.parse((SRC / f"{module}.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "nstar")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_documents_imports_no_suite_space_or_cli():
    # documents.py reads the documents of the objects; it knows no check suite, space functional or command
    tree = ast.parse((SRC / "documents.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names if not node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert imported.isdisjoint({"suite", "space", "cli"})
