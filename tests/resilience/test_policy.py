"""Retry/failure policies: validation and failure records."""

import pytest

from repro.errors import (
    ConfigurationError,
    SweepPointError,
    SweepTimeoutError,
)
from repro.resilience.policy import (
    FAILURE_KINDS,
    FailurePolicy,
    PointFailure,
    RetryPolicy,
    SweepOutcome,
)


class TestFailurePolicy:
    def test_coerce_accepts_enum(self):
        assert FailurePolicy.coerce(FailurePolicy.COLLECT) is (
            FailurePolicy.COLLECT
        )

    def test_coerce_accepts_string(self):
        assert FailurePolicy.coerce("retry_then_collect") is (
            FailurePolicy.RETRY_THEN_COLLECT
        )

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="failure policy"):
            FailurePolicy.coerce("explode")


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout": 0.0},
            {"timeout": -5.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestPointFailure:
    def make(self, kind="raise"):
        return PointFailure(
            key=2,
            kind=kind,
            error_type="SimulationError",
            message="boom",
            traceback="Traceback ...",
            attempts=3,
            worker_pid=1234,
        )

    def test_kinds_registry(self):
        assert set(FAILURE_KINDS) == {"raise", "timeout", "crash"}

    def test_to_dict_has_summary_line(self):
        data = self.make().to_dict()
        assert data["key"] == 2
        assert data["attempts"] == 3
        assert "SimulationError" in data["error"]
        assert "3 attempt" in data["error"]

    def test_to_exception_carries_failure(self):
        failure = self.make()
        exc = failure.to_exception()
        assert isinstance(exc, SweepPointError)
        assert exc.failure is failure

    def test_timeout_kind_maps_to_timeout_error(self):
        exc = self.make(kind="timeout").to_exception()
        assert isinstance(exc, SweepTimeoutError)

    def test_exception_survives_pickling(self):
        import pickle

        exc = self.make().to_exception()
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, SweepPointError)
        assert clone.failure.error_type == "SimulationError"


class TestSweepOutcome:
    def test_ok_and_completed(self):
        outcome = SweepOutcome(results=["a", None, "c"])
        assert outcome.completed() == 2
        assert outcome.ok  # no failure records yet

    def test_failure_makes_outcome_not_ok(self):
        failure = PointFailure(
            key=1, kind="raise", error_type="ValueError", message="x"
        )
        outcome = SweepOutcome(results=[None], failures=[failure])
        assert not outcome.ok
        assert outcome.completed() == 0
