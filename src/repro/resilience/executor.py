"""A process-pool executor that survives its workers.

:class:`ResilientPoolExecutor` runs picklable tasks over a
``concurrent.futures`` process pool and treats worker failure as data,
not as the end of the run:

- **raised exceptions** are caught *inside* the worker by a guard
  wrapper and returned as structured records (exception class,
  message, traceback text, worker pid) — no pool teardown, no lost
  siblings;
- **worker death** (``os._exit``, OOM-kill, segfault) surfaces as
  ``BrokenProcessPool``; the pool is re-created and only the in-flight
  tasks are re-queued — completed results are never recomputed;
- **hangs** are reaped by a per-task wall-clock timeout: the pool is
  killed (the only way to stop a hung worker), the overdue task is
  charged a :class:`~repro.errors.SweepTimeoutError`, and the
  *innocent* in-flight tasks are re-queued without losing an attempt;
- **retries** follow a :class:`~repro.resilience.policy.RetryPolicy`
  (bounded attempts, exponential backoff, deterministic jitter) under
  the ``retry_then_collect`` failure policy.

Tasks are only submitted while a worker slot is free, so submission
time approximates start time and the timeout is a genuine per-task
wall-clock budget. The tests drive every path above on a real pool
through one seam, :data:`fault_plan`, which the worker guard consults
around each task.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.log import log
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.spans import Tracer, get_tracer, set_tracer
from repro.resilience.policy import FailurePolicy, PointFailure, RetryPolicy


#: The fault plan the worker guard consults, or ``None``. Only tests set
#: it (``tests/faultkit.py``), before the pool starts, so that forked
#: workers inherit it; its ``before(key, attempt)`` runs ahead of each
#: task and ``transform(key, attempt, value)`` on each result.
fault_plan: Any = None


def _attr_value(key: Any) -> Any:
    """A JSON-representable form of a task key for span attributes."""
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    return str(key)


def _parent_side_error(exc: Exception) -> Dict[str, Any]:
    """The failure record of an attempt the parent itself rejected."""
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "worker_pid": None,
    }


def _reset_worker_signals() -> None:
    """Pool initializer: restore the default SIGTERM disposition.

    Forked workers inherit the parent's signal handlers — under
    ``repro-sweep``, one that raises an interrupt exception — so the
    SIGTERM :meth:`ResilientPoolExecutor._kill_pool` sends an idle
    worker would print that exception's traceback instead of ending
    the worker quietly.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _guarded_call(task: tuple) -> tuple:
    """Worker-side wrapper: structured errors instead of raw raises.

    Runs the worker function, inside :data:`fault_plan` when a test
    installed one, and returns ``("ok", value, spans)`` or
    ``("err", record, spans)`` — so an ordinary exception costs one
    task, not the whole pool. Worker deaths, real or injected, bypass
    this (there is nothing to return from a dead process) and surface
    to the parent as ``BrokenProcessPool``.

    The task records on a fresh tracer, inside a ``pool_task`` span
    tagged ``key``, ``attempt``, and ``worker_pid`` (and stamped
    ``error``/``error_type`` on a raise). ``spans`` is that tracer's
    list of :class:`~repro.obs.spans.SpanRecord`, shipped back in the
    result for the parent's :meth:`~repro.obs.spans.Tracer.adopt` to
    hang under its open span. Every sweep task pays this wrapper, so
    the records travel as they are, with no dict round trip.
    """
    worker, key, payload, attempt = task
    # A fresh tracer per task: only this task's spans travel back.
    tracer = Tracer()
    previous_tracer = set_tracer(tracer)
    try:
        with tracer.span(
            "pool_task",
            key=_attr_value(key),
            attempt=attempt,
            worker_pid=os.getpid(),
        ):
            plan = fault_plan
            if plan is not None:
                plan.before(key, attempt)
            value = worker(payload)
            if plan is not None:
                value = plan.transform(key, attempt, value)
        return ("ok", value, tracer.records)
    except Exception as exc:
        return (
            "err",
            {
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "worker_pid": os.getpid(),
            },
            tracer.records,
        )
    finally:
        set_tracer(previous_tracer)


class _Task:
    """Book-keeping for one queued/in-flight task."""

    __slots__ = ("key", "payload", "attempt", "not_before", "deadline")

    def __init__(self, key: Any, payload: Any) -> None:
        self.key = key
        self.payload = payload
        #: Attempts charged so far (incremented at submission).
        self.attempt = 0
        #: Monotonic time before which this task must not be submitted
        #: (backoff); 0.0 means immediately eligible.
        self.not_before = 0.0
        #: Monotonic wall-clock deadline while in flight, or ``None``.
        self.deadline: Optional[float] = None


class ExecutionReport:
    """What a :meth:`ResilientPoolExecutor.run` call produced.

    Attributes:
        results: Completed values keyed by task key.
        failures: One :class:`~repro.resilience.policy.PointFailure`
            per task that exhausted its attempts.
        retries: Total retries charged.
        pool_restarts: Pools killed and re-created.
        timeouts: Wall-clock timeouts that fired.
    """

    def __init__(self) -> None:
        self.results: Dict[Any, Any] = {}
        self.failures: List[PointFailure] = []
        self.retries = 0
        self.pool_restarts = 0
        self.timeouts = 0

    def __repr__(self) -> str:
        return (
            f"ExecutionReport(results={len(self.results)}, "
            f"failures={len(self.failures)}, retries={self.retries}, "
            f"pool_restarts={self.pool_restarts})"
        )


class ResilientPoolExecutor:
    """Run tasks across a recoverable worker pool under failure policies.

    Args:
        worker: Module-level callable executed as ``worker(payload)``
            in a pool process (must be picklable by reference).
        processes: Worker count; defaults to the CPU count, capped at
            the task count per :meth:`run`.
        retry: Backoff/timeout parameters; defaults to
            :class:`~repro.resilience.policy.RetryPolicy` defaults.
            Retries only happen under ``RETRY_THEN_COLLECT``; the
            ``timeout`` applies under every policy.
        failure_policy: ``fail_fast`` raises on the first exhausted
            task, ``collect`` records and continues,
            ``retry_then_collect`` retries first.
        metrics: Registry for ``resilience.*`` counters; defaults to
            the process-global registry.
        on_submit: Callback ``(key, attempt)`` when a task starts.
        on_result: Callback ``(key, value)`` when a task completes —
            the checkpoint hook; called as each result arrives, not at
            the end.
        on_failure: Callback ``(failure)`` when a task is given up on.
        validator: Optional ``(key, value)`` check run on every
            "successful" value *before* it is accepted. Raising
            converts the value into a failed attempt (retryable like
            any other), so a worker returning corrupt or malformed
            data cannot poison the results or crash the parent.
        tracer: The :class:`~repro.obs.spans.Tracer` that adopts the
            span records workers ship back; defaults to the
            process-global tracer. Adoption happens on the thread
            that called :meth:`run`, so each ``pool_task`` becomes a
            child of the span open around that call.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        processes: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        failure_policy: "FailurePolicy | str" = FailurePolicy.FAIL_FAST,
        metrics: Optional[MetricsRegistry] = None,
        on_submit: Optional[Callable[[Any, int], None]] = None,
        on_result: Optional[Callable[[Any, Any], None]] = None,
        on_failure: Optional[Callable[[PointFailure], None]] = None,
        validator: Optional[Callable[[Any, Any], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.worker = worker
        self.processes = processes
        self.retry = retry if retry is not None else RetryPolicy()
        self.failure_policy = FailurePolicy.coerce(failure_policy)
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.on_submit = on_submit
        self.on_result = on_result
        self.on_failure = on_failure
        self.validator = validator
        # Fork where available: workers inherit memoized miss streams
        # and a test's fault plan.
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context("spawn")
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 1

    @property
    def max_attempts(self) -> int:
        """Attempts each task gets under the configured policy."""
        if self.failure_policy is FailurePolicy.RETRY_THEN_COLLECT:
            return self.retry.max_attempts
        return 1

    def run(self, tasks: Sequence[Tuple[Any, Any]]) -> ExecutionReport:
        """Execute every ``(key, payload)`` task; returns the report.

        Raises:
            SweepPointError: Under ``fail_fast``, on the first task
                that fails (carrying its
                :class:`~repro.resilience.policy.PointFailure`).
        """
        report = ExecutionReport()
        if not tasks:
            return report
        pending = deque(_Task(key, payload) for key, payload in tasks)
        requested = self.processes or os.cpu_count() or 1
        self._pool_size = max(1, min(requested, len(pending)))
        in_flight: Dict[Any, _Task] = {}
        try:
            self._ensure_pool()
            while pending or in_flight:
                self._submit_ready(pending, in_flight, report)
                if not in_flight:
                    self._sleep_until_ready(pending)
                    continue
                done = self._wait_one(in_flight)
                for future in done:
                    if future in in_flight:
                        self._complete(future, pending, in_flight, report)
                self._reap_overdue(pending, in_flight, report)
        finally:
            self._kill_pool()
        return report

    # ------------------------------------------------------------------
    # scheduling

    def _submit_ready(self, pending, in_flight, report) -> None:
        """Fill free worker slots with backoff-eligible tasks."""
        now = time.monotonic()
        while len(in_flight) < self._pool_size:
            task = self._next_ready(pending, now)
            if task is None:
                return
            task.attempt += 1
            future = self._submit(task)
            start = time.monotonic()
            task.deadline = (
                start + self.retry.timeout
                if self.retry.timeout is not None
                else None
            )
            in_flight[future] = task
            if self.on_submit is not None:
                self.on_submit(task.key, task.attempt)

    @staticmethod
    def _next_ready(pending, now: float) -> Optional[_Task]:
        """Pop the first task whose backoff has elapsed, if any."""
        for index, task in enumerate(pending):
            if task.not_before <= now:
                del pending[index]
                return task
        return None

    @staticmethod
    def _sleep_until_ready(pending) -> None:
        """Idle until the earliest backoff elapses (bounded naps)."""
        now = time.monotonic()
        earliest = min(task.not_before for task in pending)
        delay = earliest - now
        if delay > 0:
            time.sleep(min(delay, 0.25))

    def _wait_one(self, in_flight):
        """Block for the next completion, bounded by the next deadline."""
        deadlines = [
            task.deadline
            for task in in_flight.values()
            if task.deadline is not None
        ]
        timeout = None
        if deadlines:
            timeout = max(0.0, min(deadlines) - time.monotonic()) + 0.01
        done, _ = wait(
            set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        return done

    def _submit(self, task: _Task):
        """Submit one task, re-creating the pool if it is broken.

        The envelope is ``(worker, key, payload, attempt)``; the
        attempt number tags the worker's ``pool_task`` span.
        """
        payload = (self.worker, task.key, task.payload, task.attempt)
        for _ in range(2):
            pool = self._ensure_pool()
            try:
                return pool.submit(_guarded_call, payload)
            except BrokenProcessPool:
                self._restart_pool(None)
        raise BrokenProcessPool("worker pool broke twice during submission")

    # ------------------------------------------------------------------
    # completion and failure handling

    def _complete(self, future, pending, in_flight, report) -> None:
        """Fold one finished future into results, retries, or failures."""
        task = in_flight.pop(future)
        try:
            tag, value, spans = future.result()
            if tag == "ok" and self.validator is not None:
                try:
                    self.validator(task.key, value)
                except Exception as exc:
                    self.metrics.counter("resilience.invalid_results").inc()
                    tag, value = "err", _parent_side_error(exc)
                    # Show the rejection in the trace as a worker
                    # raise would: on the attempt's pool_task span.
                    for record in spans:
                        if record.parent_span_id is None:
                            record.attrs["error"] = True
                            record.attrs["error_type"] = value["error_type"]
            self.tracer.adopt(spans)
        except BrokenProcessPool:
            self._pool_incident(task, pending, in_flight, report)
            return
        except Exception as exc:  # parent-side surprise (e.g. unpickling)
            self._fail_attempt(
                task, pending, report, kind="raise",
                info=_parent_side_error(exc),
            )
            return
        if tag == "ok":
            report.results[task.key] = value
            if self.on_result is not None:
                self.on_result(task.key, value)
        else:
            self._fail_attempt(task, pending, report, kind="raise", info=value)

    def _pool_incident(self, task, pending, in_flight, report) -> None:
        """A worker died: re-create the pool, re-queue in-flight tasks.

        ``BrokenProcessPool`` cannot attribute the death to a specific
        task, so every in-flight task is charged the attempt — the
        guilty one will exhaust its budget on repetition, and innocent
        victims typically succeed on their next attempt. Completed
        results are untouched.
        """
        victims = [task] + list(in_flight.values())
        in_flight.clear()
        self._restart_pool(report)
        self.metrics.counter("resilience.worker_crashes").inc()
        log.warning(
            "resilience.pool_broken",
            victims=len(victims),
            keys=[victim.key for victim in victims],
        )
        for victim in victims:
            self._fail_attempt(
                victim,
                pending,
                report,
                kind="crash",
                info={
                    "error_type": "BrokenProcessPool",
                    "message": (
                        "a worker process died while this point was in "
                        "flight (exit, signal, or OOM kill)"
                    ),
                    "traceback": "",
                    "worker_pid": None,
                },
            )

    def _reap_overdue(self, pending, in_flight, report) -> None:
        """Kill the pool if any in-flight task blew its deadline.

        Timeouts have exact attribution (we know which task is
        overdue), so only overdue tasks are charged; the rest of the
        in-flight set is re-queued with its attempt count intact.
        """
        now = time.monotonic()
        overdue = [
            (future, task)
            for future, task in in_flight.items()
            if task.deadline is not None and now >= task.deadline
        ]
        if not overdue:
            return
        innocents = [
            task
            for future, task in in_flight.items()
            if all(future is not exp for exp, _ in overdue)
        ]
        in_flight.clear()
        self._restart_pool(report)
        report.timeouts += len(overdue)
        self.metrics.counter("resilience.timeouts").inc(len(overdue))
        for task in innocents:
            # Not their fault: resubmit without charging the attempt.
            task.attempt -= 1
            task.not_before = 0.0
            pending.append(task)
        for _, task in overdue:
            log.warning(
                "resilience.point_timeout",
                key=task.key,
                timeout_s=self.retry.timeout,
                attempt=task.attempt,
            )
            self._fail_attempt(
                task,
                pending,
                report,
                kind="timeout",
                info={
                    "error_type": "SweepTimeoutError",
                    "message": (
                        f"exceeded the {self.retry.timeout}s per-point "
                        "wall-clock timeout"
                    ),
                    "traceback": "",
                    "worker_pid": None,
                },
            )

    def _fail_attempt(self, task, pending, report, kind, info) -> None:
        """Retry a failed attempt or convert it into a final failure."""
        if task.attempt < self.max_attempts:
            report.retries += 1
            self.metrics.counter("resilience.retries").inc()
            delay = self.retry.delay(task.key, task.attempt)
            task.not_before = time.monotonic() + delay
            log.debug(
                "resilience.retry",
                key=task.key,
                attempt=task.attempt,
                delay_s=round(delay, 3),
                error=info.get("error_type"),
            )
            pending.append(task)
            return
        failure = PointFailure(
            key=task.key,
            kind=kind,
            error_type=info.get("error_type", "Exception"),
            message=info.get("message", ""),
            traceback=info.get("traceback", ""),
            attempts=task.attempt,
            worker_pid=info.get("worker_pid"),
        )
        report.failures.append(failure)
        self.metrics.counter("resilience.point_failures").inc()
        log.error(failure.to_dict()["error"])
        if self.on_failure is not None:
            self.on_failure(failure)
        if self.failure_policy is FailurePolicy.FAIL_FAST:
            raise failure.to_exception()

    # ------------------------------------------------------------------
    # pool lifecycle

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, creating one if needed."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_size,
                mp_context=self._context,
                initializer=_reset_worker_signals,
            )
        return self._pool

    def _restart_pool(self, report) -> None:
        """Tear down the pool (terminating workers) and start fresh."""
        self._kill_pool()
        if report is not None:
            report.pool_restarts += 1
        self.metrics.counter("resilience.pool_restarts").inc()
        self._ensure_pool()

    def _kill_pool(self) -> None:
        """Terminate worker processes and discard the pool.

        ``shutdown`` alone never interrupts a hung worker, so the
        worker processes are terminated explicitly — the internal
        ``_processes`` map is the only handle the stdlib exposes.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=2)
