"""The worker fault fakes of ``tests/faultkit.py``: selection and firing."""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import executor
from tests import faultkit
from tests.faultkit import CORRUPTED, FaultPlan, FaultSpec, InjectedFaultError


@pytest.fixture(autouse=True)
def clean_plan():
    faultkit.deactivate()
    yield
    faultkit.deactivate()


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            FaultSpec("meltdown")

    def test_key_selector(self):
        spec = FaultSpec("raise", at=2)
        assert spec.matches(2, 1)
        assert not spec.matches(3, 1)

    def test_attempt_selector(self):
        spec = FaultSpec("raise", attempts=frozenset({1}))
        assert spec.matches(0, 1)
        assert not spec.matches(0, 2)


class TestFaultPlan:
    def test_raise_fires(self):
        plan = FaultPlan([FaultSpec("raise", at=1)])
        plan.before(0, 1)  # wrong key: no-op
        with pytest.raises(InjectedFaultError, match="point 1"):
            plan.before(1, 1)

    def test_corrupt_substitutes_sentinel(self):
        plan = FaultPlan([FaultSpec("corrupt", at=0)])
        assert plan.transform(0, 1, "real") == CORRUPTED
        assert plan.transform(1, 1, "real") == "real"


class TestActivation:
    def test_inert_by_default(self):
        assert executor.fault_plan is None


class TestSpecEdgeCases:
    def test_unknown_action_names_the_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FaultSpec("explode", at=1)
        assert "raise" in str(excinfo.value)

    def test_duplicate_point_attempt_first_spec_wins(self):
        # Two specs matching the same (point, attempt): declaration
        # order decides, so the raise fires and the exit never runs.
        plan = FaultPlan([FaultSpec("raise", at=1), FaultSpec("exit", at=1)])
        with pytest.raises(InjectedFaultError):
            plan.before(1, 1)
