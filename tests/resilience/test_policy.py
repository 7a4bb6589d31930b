"""Retry/failure policies: validation, determinism, failure records."""

import pytest

from repro.errors import (
    ConfigurationError,
    SweepPointError,
    SweepTimeoutError,
)
from repro.resilience.policy import (
    FAILURE_KINDS,
    MAX_DELAY,
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
            {"base_delay": -1.0},
            {"timeout": 0.0},
            {"timeout": -5.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_attempt_numbers_are_one_based(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay("key", 0)


def delays(policy, key, attempts=4):
    """The backoff after each of the first ``attempts`` failures."""
    return [policy.delay(key, attempt) for attempt in range(1, attempts + 1)]


class TestBackoffDeterminism:
    def test_equal_policies_back_off_identically(self):
        a = RetryPolicy(max_attempts=5)
        b = RetryPolicy(max_attempts=5)
        assert delays(a, 3) == delays(b, 3)

    def test_different_keys_decorrelate(self):
        policy = RetryPolicy(max_attempts=5)
        assert delays(policy, 0) != delays(policy, 1)

    def test_max_delay_caps_growth(self):
        # 1 s doubling would reach 512 s by the tenth attempt; the cap
        # holds the un-jittered delay at MAX_DELAY.
        policy = RetryPolicy(base_delay=1.0)
        for key in range(20):
            assert MAX_DELAY <= policy.delay(key, 10) < MAX_DELAY * 1.5

    def test_jitter_bounded(self):
        policy = RetryPolicy(max_attempts=2, base_delay=1.0)
        for key in range(50):
            delay = policy.delay(key, 1)
            assert 1.0 <= delay < 1.5


class TestBackoffPins:
    """Exact delays, so reshaping the policy cannot move a backoff."""

    CASES = [
        # (policy kwargs, key, attempt, delay)
        ({}, 0, 1, 0.5895854806341324),
        ({}, 0, 2, 1.3443806810311885),
        ({}, 3, 3, 2.184054039300366),
        ({}, "k", 7, 33.02359187143387),
        ({}, 5, 12, 41.8955221744504),
        ({"base_delay": 0.01}, 1, 1, 0.012133245843119483),
        ({"base_delay": 0.01}, 1, 2, 0.024583834370024062),
        (
            {"base_delay": 2.0, "max_attempts": 5, "timeout": 60.0},
            7, 4, 20.73222668980387,
        ),
    ]

    def test_delays_pinned(self):
        for kwargs, key, attempt, expected in self.CASES:
            assert RetryPolicy(**kwargs).delay(key, attempt) == expected


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

    def test_raise_if_failed(self):
        failure = PointFailure(
            key=1, kind="raise", error_type="ValueError", message="x"
        )
        outcome = SweepOutcome(results=[None], failures=[failure])
        assert not outcome.ok
        with pytest.raises(SweepPointError):
            outcome.raise_if_failed()

    def test_raise_if_failed_returns_self_when_ok(self):
        outcome = SweepOutcome(results=["a"])
        assert outcome.raise_if_failed() is outcome
