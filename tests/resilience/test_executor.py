"""ResilientPoolExecutor recovery paths, driven on real worker pools."""

import pytest

from repro.errors import SweepPointError, SweepTimeoutError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.resilience.executor import ResilientPoolExecutor
from repro.resilience.policy import FailurePolicy, RetryPolicy
from tests import faultkit
from tests.faultkit import FaultPlan, FaultSpec


def double(payload):
    """Trivial picklable worker."""
    return payload * 2


def picky(payload):
    """Worker that rejects one specific payload."""
    if payload == 13:
        raise ValueError("unlucky payload")
    return payload * 2


@pytest.fixture(autouse=True)
def clean_plan():
    faultkit.deactivate()
    yield
    faultkit.deactivate()


FAST = RetryPolicy(max_attempts=3, base_delay=0.01)


def make(worker=double, **kwargs):
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("retry", FAST)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ResilientPoolExecutor(worker, **kwargs)


class TestHappyPath:
    def test_all_results_in_order(self):
        report = make().run([(i, i) for i in range(5)])
        assert report.results == {i: i * 2 for i in range(5)}
        assert not report.failures
        assert report.retries == 0

    def test_empty_task_list(self):
        report = make().run([])
        assert report.results == {} and not report.failures

    def test_callbacks_fire(self):
        events = []
        executor = make(
            on_submit=lambda key, attempt: events.append(
                ("submit", key, attempt)
            ),
            on_result=lambda key, value: events.append(("result", key)),
        )
        executor.run([(0, 1), (1, 2)])
        assert ("submit", 0, 1) in events and ("submit", 1, 1) in events
        assert ("result", 0) in events and ("result", 1) in events


class TestWorkerExceptions:
    def test_collect_records_structured_failure(self):
        executor = make(picky, failure_policy=FailurePolicy.COLLECT)
        report = executor.run([(0, 1), (1, 13), (2, 3)])
        assert report.results == {0: 2, 2: 6}
        (failure,) = report.failures
        assert failure.key == 1
        assert failure.kind == "raise"
        assert failure.error_type == "ValueError"
        assert "unlucky payload" in failure.message
        assert "ValueError" in failure.traceback
        assert failure.worker_pid is not None
        assert failure.attempts == 1  # collect never retries

    def test_fail_fast_raises_with_failure_attached(self):
        executor = make(picky, failure_policy="fail_fast")
        with pytest.raises(SweepPointError) as excinfo:
            executor.run([(0, 13)])
        assert excinfo.value.failure.error_type == "ValueError"

    def test_on_failure_callback(self):
        seen = []
        executor = make(
            picky, failure_policy="collect", on_failure=seen.append
        )
        executor.run([(0, 13)])
        assert seen[0].key == 0

    def test_retry_exhausts_attempt_budget(self):
        executor = make(picky, failure_policy="retry_then_collect")
        report = executor.run([(0, 13)])
        (failure,) = report.failures
        assert failure.attempts == FAST.max_attempts
        assert report.retries == FAST.max_attempts - 1


class TestInjectedFaults:
    def test_transient_raise_retried_to_success(self):
        faultkit.activate(
            FaultPlan([FaultSpec("raise", at=1, attempts=frozenset({1}))])
        )
        metrics = MetricsRegistry()
        executor = make(
            failure_policy="retry_then_collect", metrics=metrics
        )
        report = executor.run([(i, i) for i in range(3)])
        assert report.results == {0: 0, 1: 2, 2: 4}
        assert not report.failures
        assert report.retries == 1
        assert metrics.snapshot()["counters"]["resilience.retries"] == 1

    def test_worker_death_recovered(self):
        faultkit.activate(
            FaultPlan([FaultSpec("exit", at=2, attempts=frozenset({1}))])
        )
        executor = make(failure_policy="retry_then_collect")
        report = executor.run([(i, i) for i in range(4)])
        assert report.results == {i: i * 2 for i in range(4)}
        assert report.pool_restarts >= 1

    def test_persistent_worker_death_collected_as_crash(self):
        faultkit.activate(FaultPlan([FaultSpec("exit", at=0)]))
        executor = make(failure_policy="retry_then_collect", processes=1)
        report = executor.run([(0, 0), (1, 1)])
        assert report.results == {1: 2}
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert failure.error_type == "BrokenProcessPool"

    def test_hang_reaped_by_timeout_then_retried(self):
        faultkit.activate(
            FaultPlan(
                [FaultSpec("hang", at=0, attempts=frozenset({1}), seconds=60)]
            )
        )
        executor = make(
            failure_policy="retry_then_collect",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, timeout=1.0),
        )
        report = executor.run([(0, 5), (1, 6)])
        assert report.results == {0: 10, 1: 12}
        assert report.timeouts == 1
        assert report.pool_restarts >= 1

    def test_persistent_hang_becomes_timeout_failure(self):
        faultkit.activate(FaultPlan([FaultSpec("hang", at=0, seconds=60)]))
        executor = make(
            failure_policy="collect",
            retry=RetryPolicy(max_attempts=1, timeout=0.5),
            processes=1,
        )
        report = executor.run([(0, 5)])
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert isinstance(failure.to_exception(), SweepTimeoutError)


class TestTracePropagation:
    """Worker spans cross the pool boundary into the open span's tree."""

    def run_traced(self, tasks, in_span=True, **kwargs):
        """Run ``tasks``, by default inside a ``request`` span.

        Returns the report, the tracer, and the ``request`` span's
        record (``None`` when run outside a span).
        """
        tracer = Tracer()
        kwargs.setdefault("tracer", tracer)
        executor = make(**kwargs)
        if not in_span:
            return executor.run(tasks), tracer, None
        with tracer.span("request"):
            report = executor.run(tasks)
        (request,) = [r for r in tracer.records if r.name == "request"]
        return report, tracer, request

    def test_pool_task_spans_adopted_under_the_open_span(self):
        report, tracer, request = self.run_traced([(i, i) for i in range(3)])
        assert report.results == {i: i * 2 for i in range(3)}
        tasks = [r for r in tracer.records if r.name == "pool_task"]
        assert len(tasks) == 3
        for record in tasks:
            assert record.trace_id == request.trace_id
            assert record.parent_span_id == request.span_id
            assert record.attrs["attempt"] == 1
            assert record.attrs["worker_pid"] != 0
        assert sorted(r.attrs["key"] for r in tasks) == [0, 1, 2]

    def test_span_ids_unique_across_tasks(self):
        _, tracer, _ = self.run_traced([(i, i) for i in range(4)])
        span_ids = [
            r.span_id for r in tracer.records if r.name == "pool_task"
        ]
        assert len(span_ids) == len(set(span_ids)) == 4

    def test_retry_produces_attempt_tagged_child_spans(self):
        faultkit.activate(
            FaultPlan([FaultSpec("raise", at=0, attempts=frozenset({1}))])
        )
        report, tracer, request = self.run_traced(
            [(0, 5)], failure_policy="retry_then_collect"
        )
        assert report.results == {0: 10}
        tasks = sorted(
            (r for r in tracer.records if r.name == "pool_task"),
            key=lambda r: r.attrs["attempt"],
        )
        assert [r.attrs["attempt"] for r in tasks] == [1, 2]
        assert tasks[0].attrs["error"] is True
        assert tasks[0].attrs["error_type"] == "InjectedFaultError"
        assert "error" not in tasks[1].attrs
        assert {r.trace_id for r in tasks} == {request.trace_id}
        assert tasks[0].span_id != tasks[1].span_id

    def test_no_open_span_leaves_worker_roots(self):
        report, tracer, _ = self.run_traced([(0, 1)], in_span=False)
        assert report.results == {0: 2}
        (record,) = [r for r in tracer.records if r.name == "pool_task"]
        # The worker's span roots its own trace.
        assert record.trace_id is not None
        assert record.parent_span_id is None

    def test_worker_inner_spans_nest_under_pool_task(self):
        report, tracer, request = self.run_traced(
            [(0, 2)], worker=traced_worker
        )
        assert report.results == {0: 4}
        by_name = {r.name: r for r in tracer.records}
        inner, task = by_name["compute"], by_name["pool_task"]
        assert inner.trace_id == request.trace_id
        assert inner.parent_span_id == task.span_id


def traced_worker(payload):
    """Worker that opens its own span inside the guard's pool_task."""
    from repro.obs.spans import span

    with span("compute"):
        return payload * 2


class TestValidator:
    def test_corrupt_result_rejected_not_merged(self):
        faultkit.activate(FaultPlan([FaultSpec("corrupt", at=0)]))

        def validator(key, value):
            if not isinstance(value, int):
                raise TypeError(f"corrupt payload {value!r}")

        metrics = MetricsRegistry()
        executor = make(
            failure_policy="collect", metrics=metrics, validator=validator
        )
        report = executor.run([(0, 1), (1, 2)])
        assert report.results == {1: 4}
        (failure,) = report.failures
        assert failure.error_type == "TypeError"
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.invalid_results"] == 1

    def test_transient_corruption_retried_clean(self):
        faultkit.activate(
            FaultPlan([FaultSpec("corrupt", at=0, attempts=frozenset({1}))])
        )

        def validator(key, value):
            if not isinstance(value, int):
                raise TypeError("corrupt")

        tracer = Tracer()
        executor = make(
            failure_policy="retry_then_collect", validator=validator,
            tracer=tracer,
        )
        with tracer.span("request"):
            report = executor.run([(0, 1)])
        assert report.results == {0: 2}
        assert report.retries == 1
        tasks = {
            r.attrs["attempt"]: r.attrs
            for r in tracer.records if r.name == "pool_task"
        }
        # The rejected attempt shows as failed, next to its retry.
        assert tasks[1]["error"] is True
        assert tasks[1]["error_type"] == "TypeError"
        assert "error" not in tasks[2]
