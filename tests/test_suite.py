import numpy as np
import pytest

from nstar import DomainError, MeasureSpace, NonconvergenceError, NStarFunction, log_sqrt_family, power_family
from nstar.suite import CHECK_NAMES, default_doubling_constant, run_check_suite


class TestDefaultDoublingConstant:
    def test_power_family(self):
        assert default_doubling_constant(power_family(0.5)) == pytest.approx(4.0, abs=1e-9)

    def test_non_doubling_family_rejected(self):
        with pytest.raises(NonconvergenceError, match="could not certify a doubling constant for this generator"):
            default_doubling_constant(log_sqrt_family())

    def test_fault_in_generator_propagates(self):
        # a bug in eval_fn is not "could not certify a doubling constant"
        def eval_fn(a):
            raise ZeroDivisionError("bug in eval_fn")

        phi = NStarFunction(density=lambda t: 1.0 / np.sqrt(t), eval_fn=eval_fn, inverse_fn=np.square)
        with pytest.raises(ZeroDivisionError):
            default_doubling_constant(phi)


class TestRunCheckSuite:
    def test_all_checks_pass_for_power(self):
        space = MeasureSpace.interval(1.0, 200)
        records = run_check_suite(power_family(0.5), space, samples=10, seed=5)
        assert [r.name for r in records] == list(CHECK_NAMES)
        assert all(r.passed for r in records)

    def test_deterministic_given_seed(self):
        space = MeasureSpace.atomic([0.5, 1.0, 2.0])
        a = run_check_suite(power_family(0.25), space, samples=8, seed=9)
        b = run_check_suite(power_family(0.25), space, samples=8, seed=9)
        assert [(r.slack_min, r.slack_max) for r in a] == [(r.slack_min, r.slack_max) for r in b]

    def test_doubling_dependent_checks_skip_without_certificate(self):
        space = MeasureSpace.interval(1.0, 128)
        records = run_check_suite(
            log_sqrt_family(), space, checks=("quasi_triangle", "reversed_jensen"), samples=5
        )
        by_name = {r.name: r for r in records}
        assert by_name["quasi_triangle"].skipped
        assert any("skipped" in n for n in by_name["quasi_triangle"].notes)
        assert by_name["reversed_jensen"].passed

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            run_check_suite(power_family(0.5), MeasureSpace.atomic([1.0]), checks=("bogus",))

    def test_record_schema(self):
        space = MeasureSpace.atomic([1.0, 1.0])
        records = run_check_suite(power_family(0.5), space, checks=("young_type",), samples=3)
        rec = records[0].to_record()
        assert set(rec) >= {"name", "slack_min", "slack_max", "pass"}
