"""The long-running simulation service and its local HTTP+JSON API.

:class:`SimulationService` is the daemon core behind ``repro-serve``:
a bounded job queue feeding worker threads that execute sweep jobs on
the resilient process-pool path, guarded end to end —

- **admission control** validates and costs every submission before
  it queues (:mod:`repro.service.admission`);
- the **bounded queue** sheds load with HTTP 429 + ``Retry-After``
  once its high watermark is reached (:mod:`repro.service.queue`);
- an **ingest breaker** turns repeated submission-path crashes (not
  client errors) into fast 503s, and an **execute breaker** opens
  after consecutive failed jobs so a wedged or dying worker pool
  stops accepting work until a half-open probe proves it recovered
  (:mod:`repro.service.breaker`);
- a **watchdog** flags workers stuck past their job deadline and
  trips the execute breaker (:mod:`repro.service.drain`);
- every job runs with a crash-safe
  :class:`~repro.resilience.checkpoint.SweepCheckpoint` in the spool
  directory, so a drain — or a kill — never loses a completed point.

Every job is also a **flight record**: it owns a
:class:`~repro.obs.context.TraceContext` whose ``trace_id`` rides
from the submission handler through the worker thread into the pool
processes (via the resilient executor's task envelope), and the
service stamps each phase — admission, queue wait, execute, and the
end-to-end ``job`` root span — into both the tracer and the
``latency.*`` quantile histograms (p50/p95/p99/p999 in ``/metrics``
and the dashboards).

:class:`ServiceHTTPServer` exposes it over loopback HTTP: ``POST
/jobs`` (202/400/429/503), ``GET /jobs`` and ``GET /jobs/<id>``,
``GET /jobs/<id>/trace`` (the assembled cross-process span tree),
``GET /healthz`` (process liveness), ``GET /readyz`` (flips 503
during drain and while the execute breaker is open), ``GET
/metrics`` (JSON snapshot of the :mod:`repro.obs.metrics` registry
plus queue and breaker state), and the operator dashboard — ``GET
/dashboard`` (HTML), ``GET /dashboard.txt`` (byte-stable ASCII), and
``GET /dashboard.json`` (the machine-readable payload) — composing
the live snapshot, the job table, and the benchmark trajectory from
``bench_history_path`` via :mod:`repro.report.dashboard`. The
transport is stdlib ``http.server`` — zero dependencies, threads not
processes, because the heavy work already lives in the resilient
pool.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    QueueFullError,
    ReproError,
    ServiceError,
    StorageError,
)
from repro.experiments.configs import default_workload
from repro.experiments.runner import ParallelSweepRunner
from repro.obs.context import activate, new_trace
from repro.obs.log import log
from repro.obs.manifest import RunManifest, describe_workload
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.spans import Tracer, get_tracer
from repro.obs.trace_report import build_span_tree
from repro.report.dashboard import (
    build_dashboard_payload,
    render_dashboard_html,
    render_dashboard_text,
)
from repro.report.trajectory import TrajectoryReport
from repro.resilience.policy import PointFailure, RetryPolicy
from repro.service.admission import AdmissionController
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.drain import Watchdog
from repro.service.queue import BoundedJobQueue
from repro.storage.scrub import Scrubber

#: Job lifecycle states.
JOB_STATES = (
    "queued", "running", "done", "partial", "failed", "checkpointed",
)


class Job:
    """One submitted sweep job and its lifecycle record.

    Each job owns a fresh :class:`~repro.obs.context.TraceContext`
    (its *flight record* identity): every span the service, the sweep
    runner, and the pool workers record for this job carries
    ``trace_id``, and the context's root ``span_id`` becomes the
    end-to-end ``job`` span. The ``*_perf`` stamps are monotonic
    (``time.perf_counter``) phase boundaries the latency quantiles
    and synthetic spans are computed from.
    """

    def __init__(
        self, job_id: str, points, config: Dict[str, Any]
    ) -> None:
        self.id = job_id
        self.points = points
        self.config = config
        self.status = "queued"
        self.submitted_unix = time.time()
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.error: Optional[str] = None
        self.summary: Dict[str, Any] = {}
        self.checkpoint_path: Optional[str] = None
        self.context = new_trace()
        self.submitted_perf: Optional[float] = None
        self.enqueued_perf: Optional[float] = None

    @property
    def trace_id(self) -> str:
        """The trace identity shared by every span of this job."""
        return self.context.trace_id

    @property
    def root_span_id(self) -> str:
        """The span id of the job's end-to-end root span."""
        return self.context.span_id

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable job record for the HTTP API."""
        return {
            "id": self.id,
            "status": self.status,
            "points": len(self.points),
            "config_hash": self.config.get("config_hash"),
            "estimated_probes": self.config.get("estimated_probes"),
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
            "summary": self.summary,
            "checkpoint": self.checkpoint_path,
            "trace_id": self.trace_id,
        }


class SimulationService:
    """The daemon core: queue, breakers, workers, watchdog, drain.

    Args:
        workload: Shared simulation workload; defaults to
            :func:`~repro.experiments.configs.default_workload`.
        spool_dir: Directory for per-job checkpoints and the drain
            manifest; created on first use.
        queue_size: Hard bound on queued jobs.
        high_watermark / low_watermark: Shedding hysteresis bounds
            (defaults per :class:`~repro.service.queue.BoundedJobQueue`).
        retry_after: Seconds clients are told to back off on 429.
        max_probe_budget: Admission ceiling on estimated probes per
            job (``None`` = unlimited).
        workers: Job-worker thread count (each runs one job at a time
            on its own resilient process pool).
        processes: Process-pool size per job; defaults to CPU count.
        retry: Per-point retry/timeout policy for job execution.
        breaker_threshold: Consecutive job failures that open the
            execute breaker.
        breaker_reset: Seconds before an open breaker admits a probe.
        job_deadline: Watchdog budget for one job, in seconds
            (``None`` disables the watchdog).
        job_runner: Callable executing one job —
            ``(job) -> SweepOutcome``; defaults to running the job's
            points on a
            :class:`~repro.experiments.runner.ParallelSweepRunner`
            with the job's checkpoint. Tests inject stubs to drive the
            control plane without pools.
        metrics: Registry for every ``service.*`` instrument;
            defaults to the process-global registry.
        tracer: Tracer receiving one ``service_job`` span per job.
        bench_history_path: ``BENCH_simulator.json`` trajectory file
            folded into the ``/dashboard`` views; ``None`` renders the
            dashboard without a trajectory section, a missing file as
            an empty history.
        scrub_interval: Seconds between background storage-scrub
            passes over the spool (``None`` disables the scrubber).
            The scrubber is scan-only; it publishes
            ``storage.scrub.*`` metrics and flips ``/readyz`` when it
            finds unrepairable corruption (run ``repro-fsck --repair``
            offline to clear it).
    """

    def __init__(
        self,
        workload=None,
        spool_dir="repro-serve-spool",
        queue_size: int = 16,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        retry_after: float = 1.0,
        max_probe_budget: Optional[int] = None,
        workers: int = 1,
        processes: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        job_deadline: Optional[float] = None,
        job_runner: Optional[Callable[..., Any]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        bench_history_path=None,
        scrub_interval: Optional[float] = None,
    ) -> None:
        self.workload = (
            workload if workload is not None else default_workload()
        )
        self.spool_dir = Path(spool_dir)
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.queue = BoundedJobQueue(
            queue_size,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            retry_after=retry_after,
            metrics=self.metrics,
        )
        self.admission = AdmissionController(
            self.workload,
            max_probe_budget=max_probe_budget,
            metrics=self.metrics,
        )
        self.ingest_breaker = CircuitBreaker(
            "ingest",
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
            metrics=self.metrics,
        )
        self.execute_breaker = CircuitBreaker(
            "execute",
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset,
            metrics=self.metrics,
        )
        self.watchdog: Optional[Watchdog] = None
        if job_deadline is not None:
            self.watchdog = Watchdog(
                job_deadline,
                interval=min(1.0, max(0.05, job_deadline / 4)),
                on_stall=self._on_stall,
                metrics=self.metrics,
            )
        self.bench_history_path = (
            Path(bench_history_path) if bench_history_path is not None else None
        )
        self.processes = processes
        self.retry = retry if retry is not None else RetryPolicy()
        self.job_runner = (
            job_runner if job_runner is not None else self._default_runner
        )
        self.scrubber: Optional[Scrubber] = None
        if scrub_interval is not None:
            self.scrubber = Scrubber(
                self.spool_dir, interval=scrub_interval, metrics=self.metrics
            )
        self._workers_requested = max(1, workers)
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        self._threads: List[threading.Thread] = []
        self._draining = threading.Event()
        self._stopped = threading.Event()
        #: Last disk-level failure seen on the execute path (cleared by
        #: the next fully successful job) — the ``/healthz`` detail.
        self._storage_error: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Start the worker threads and the watchdog."""
        if self._threads:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for index in range(self._workers_requested):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{index}",),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.watchdog is not None:
            self.watchdog.start()
        if self.scrubber is not None:
            self.scrubber.start()
        log.info(
            f"service started: {self._workers_requested} worker(s), "
            f"queue capacity {self.queue.capacity}"
        )

    def drain(self, grace: float = 30.0) -> bool:
        """Gracefully drain: stop admitting, finish or abandon jobs.

        Closes the queue (new submissions get 429), waits up to
        ``grace`` seconds for the workers to finish the backlog, then
        marks any still-running job ``checkpointed`` — its completed
        points are already durable in the spool checkpoint, so a later
        submission of the same points resumes instead of recomputing.
        Finally writes the service manifest and metrics snapshot.

        Returns ``True`` when every worker finished inside the grace
        period (a *clean* drain), ``False`` when a job had to be
        abandoned to its checkpoint.
        """
        self._draining.set()
        self.queue.close()
        deadline = time.monotonic() + grace
        clean = True
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            thread.join(timeout=max(0.0, remaining))
            if thread.is_alive():
                clean = False
        if not clean:
            with self._jobs_lock:
                for job in self._jobs.values():
                    if job.status == "running":
                        job.status = "checkpointed"
                        job.finished_unix = time.time()
                        log.warning(
                            "service.job_abandoned_to_checkpoint",
                            job=job.id,
                            checkpoint=job.checkpoint_path,
                        )
        if self.watchdog is not None:
            self.watchdog.stop()
        if self.scrubber is not None:
            self.scrubber.stop()
        self.write_obs()
        self._stopped.set()
        log.info(
            f"service drained ({'clean' if clean else 'checkpointed'}): "
            f"{len(self._jobs)} job(s) processed"
        )
        return clean

    @property
    def draining(self) -> bool:
        """Whether a drain has started."""
        return self._draining.is_set()

    def ready(self) -> "tuple[bool, str]":
        """Readiness verdict: ``(ready, reason)``.

        Not ready while draining, while the execute breaker is open,
        or while the storage scrubber's last pass found unrepairable
        corruption in the spool — the states in which accepting work
        would be a lie.
        """
        if self.draining:
            return False, "draining"
        if self.execute_breaker.state == OPEN:
            return False, "execute breaker open"
        if self.scrubber is not None and not self.scrubber.healthy():
            return False, (
                "unrepairable storage corruption in spool "
                "(run repro-fsck --repair)"
            )
        return True, "ok"

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: liveness plus storage detail.

        Stays ``{"ok": True}`` while healthy; grows a ``storage``
        block naming the failure when a disk-level error (``ENOSPC``,
        ``EIO``) hit the execute path or the scrubber found
        unrepairable corruption — so an operator polling ``/healthz``
        sees *why* jobs are failing, not a bare breaker trip.
        """
        payload: Dict[str, Any] = {"ok": True}
        detail: Dict[str, Any] = {}
        if self._storage_error is not None:
            detail["last_error"] = self._storage_error
        if self.scrubber is not None and not self.scrubber.healthy():
            detail["unrepairable"] = self.scrubber.status()["unrepairable"]
        if detail:
            payload["storage"] = detail
        return payload

    # ------------------------------------------------------------------
    # submission path

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Admit, enqueue, and register one job; returns its record.

        Raises:
            AdmissionError: Malformed payload or blown probe budget.
            QueueFullError: Queue saturated or service draining.
            CircuitOpenError: The ingest breaker is open after
                repeated submission-path crashes.
        """
        self.ingest_breaker.allow()
        submitted_perf = time.perf_counter()
        try:
            points, config = self.admission.admit(payload)
            job = self._register(points, config)
            job.submitted_perf = submitted_perf
            admitted_perf = time.perf_counter()
            try:
                self.queue.offer(job)
            except QueueFullError:
                self._unregister(job.id)
                raise
            job.enqueued_perf = time.perf_counter()
        except (AdmissionError, QueueFullError):
            # Client-side rejections are not ingest failures: a burst
            # of bad requests must not open the breaker and take the
            # service down for well-formed ones.
            self.ingest_breaker.record_success()
            raise
        except Exception as exc:
            self.ingest_breaker.record_failure(exc)
            raise
        self.ingest_breaker.record_success()
        admission_wall = admitted_perf - submitted_perf
        self.metrics.quantile_histogram(
            "latency.admission_seconds"
        ).observe(admission_wall)
        self.tracer.record_span(
            "admission",
            admission_wall,
            attrs={"job": job.id},
            trace_id=job.trace_id,
            parent_span_id=job.root_span_id,
        )
        log.info(
            f"job {job.id} queued: {len(points)} point(s), "
            f"~{config['estimated_probes']} probes"
        )
        return job.to_dict()

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The record of ``job_id``, or ``None`` if unknown."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            return job.to_dict() if job is not None else None

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job record, oldest first."""
        with self._jobs_lock:
            return [job.to_dict() for job in self._jobs.values()]

    def status(self) -> Dict[str, Any]:
        """Operational snapshot for ``/metrics``: queue, breakers, jobs."""
        ready, reason = self.ready()
        with self._jobs_lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "ready": ready,
            "reason": reason,
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "breakers": {
                "ingest": self.ingest_breaker.snapshot(),
                "execute": self.execute_breaker.snapshot(),
            },
            "jobs": by_status,
            "replay": self._replay_snapshot(),
            "latency": self._latency_snapshot(),
            "storage": self._storage_snapshot(),
            "metrics": self.metrics.snapshot(),
        }

    def _storage_snapshot(self) -> Dict[str, Any]:
        """The ``storage.*`` namespace as a dedicated status block.

        Same get-or-create discipline as :meth:`_replay_snapshot`:
        the counters are visible (zeroed) before the first error or
        scrub pass.
        """
        counter_names = (
            "storage.errors",
            "storage.scrub.scans",
            "storage.scrub.verified",
            "storage.scrub.findings",
            "storage.scrub.unrepairable",
        )
        return {
            "counters": {
                name: self.metrics.counter(name).value
                for name in counter_names
            },
            "last_error": self._storage_error,
            "scrubber": (
                self.scrubber.status() if self.scrubber is not None else None
            ),
        }

    def _replay_snapshot(self) -> Dict[str, Any]:
        """The stream-artifact counters as a dedicated block.

        Reading via get-or-create keeps the block present (zeroed)
        before the first job runs, so operators see the namespace
        instead of inferring it from absence.
        """
        counter_names = (
            "miss_stream.artifact_hits",
            "miss_stream.artifact_misses",
        )
        return {
            "counters": {
                name: self.metrics.counter(name).value
                for name in counter_names
            },
        }

    def _latency_snapshot(self) -> Dict[str, Any]:
        """Per-phase latency quantile summaries (p50/p95/p99/p999).

        Same get-or-create discipline as :meth:`_replay_snapshot`:
        the ``latency.*`` namespace is visible (zeroed) before the
        first job, and creating the instruments here also keeps them
        in the full metric snapshot.
        """
        names = (
            "latency.admission_seconds",
            "latency.queue_wait_seconds",
            "latency.execute_seconds",
            "latency.job_seconds",
        )
        return {
            name: self.metrics.quantile_histogram(name).summary()
            for name in names
        }

    def job_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The assembled flight record of ``job_id``, or ``None``.

        Collects every span carrying the job's ``trace_id`` from the
        service tracer — handler-side admission and queue wait, the
        executing worker thread's ``service_job``/``sweep`` spans, the
        ``pool_task`` spans shipped back from the worker *processes*,
        and (once finished) the end-to-end ``job`` root — and
        assembles them into a causal tree. Available while the job is
        still running; the tree simply grows until the root lands.
        """
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        records = [
            record.to_dict()
            for record in self.tracer.records_for_trace(job.trace_id)
        ]
        return {
            "job": job_id,
            "trace_id": job.trace_id,
            "status": job.status,
            "spans": len(records),
            "tree": build_span_tree(records),
        }

    def trajectory(self) -> Optional[TrajectoryReport]:
        """The bench trajectory report, or ``None`` if unconfigured."""
        if self.bench_history_path is None:
            return None
        return TrajectoryReport.from_file(self.bench_history_path)

    def dashboard_payload(self) -> Dict[str, Any]:
        """The composed ``/dashboard.json`` document."""
        return build_dashboard_payload(
            self.status(), self.jobs(), self.trajectory()
        )

    # ------------------------------------------------------------------
    # execution path

    def _default_runner(self, job: Job):
        """Execute ``job`` on the resilient pool with its checkpoint."""
        runner = ParallelSweepRunner(
            self.workload,
            processes=self.processes,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        return runner.run_points(
            job.points, retry=self.retry, checkpoint=job.checkpoint_path
        )

    def _worker_loop(self, worker_id: str) -> None:
        """One worker: take jobs until the queue closes and empties."""
        while True:
            job = self.queue.take(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            try:
                self.execute_breaker.allow()
            except CircuitOpenError:
                # Queued work waits for the breaker, it is not failed:
                # requeue at the front and back off until a probe is
                # admitted.
                self.queue.requeue(job)
                time.sleep(min(0.2, self.execute_breaker.reset_timeout))
                continue
            self._execute(worker_id, job)

    def _execute(self, worker_id: str, job: Job) -> None:
        """Run one admitted job through the execute breaker.

        The job's flight record is completed here: the cross-thread
        queue-wait interval becomes a synthetic ``queue_wait`` span,
        the live ``service_job`` span runs under the job's ambient
        context (so the sweep and its pool-worker spans re-parent
        under it), and the end-to-end ``job`` root span — whose
        ``span_id`` *is* the job's root — is recorded from the
        submit-to-finish monotonic stamps. Each interval also feeds
        the matching ``latency.*`` quantile histogram.
        """
        job.status = "running"
        job.started_unix = time.time()
        taken_perf = time.perf_counter()
        if job.enqueued_perf is not None:
            queue_wait = max(0.0, taken_perf - job.enqueued_perf)
            self.metrics.quantile_histogram(
                "latency.queue_wait_seconds"
            ).observe(queue_wait)
            self.tracer.record_span(
                "queue_wait",
                queue_wait,
                attrs={"job": job.id},
                trace_id=job.trace_id,
                parent_span_id=job.root_span_id,
            )
        if self.watchdog is not None:
            self.watchdog.beat(worker_id, busy=True)
        final_status = "failed"
        try:
            with activate(job.context):
                with self.tracer.span("service_job", job=job.id):
                    outcome = self.job_runner(job)
        except (StorageError, OSError) as exc:
            # Disk-level failures (ENOSPC, EIO, a failed fsync in the
            # checkpoint or spool) degrade gracefully: the typed error
            # trips the execute breaker like any job failure, and the
            # detail is stashed for /healthz so the operator sees
            # "No space left on device", not a bare breaker trip.
            job.error = f"{type(exc).__name__}: {exc}"
            self._storage_error = job.error
            self.metrics.counter("storage.errors").inc()
            self.execute_breaker.record_failure(exc)
            self.metrics.counter("service.jobs.failed").inc()
            log.error(f"job {job.id} failed on storage: {job.error}")
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            self.execute_breaker.record_failure(exc)
            self.metrics.counter("service.jobs.failed").inc()
            log.error(f"job {job.id} failed: {job.error}")
        else:
            final_status = self._finish(job, outcome)
        finally:
            job.finished_unix = time.time()
            finished_perf = time.perf_counter()
            self.metrics.quantile_histogram(
                "latency.execute_seconds"
            ).observe(finished_perf - taken_perf)
            if job.submitted_perf is not None:
                e2e = finished_perf - job.submitted_perf
                self.metrics.quantile_histogram(
                    "latency.job_seconds"
                ).observe(e2e)
                self.tracer.record_span(
                    "job",
                    e2e,
                    attrs={"job": job.id, "status": final_status},
                    trace_id=job.trace_id,
                    span_id=job.root_span_id,
                    parent_span_id=None,
                )
            # The terminal status is published only after the root span
            # lands: anyone who polls the job to a terminal state must be
            # able to read a complete flight record.
            job.status = final_status
            if self.watchdog is not None:
                self.watchdog.beat(worker_id, busy=False)

    def _finish(self, job: Job, outcome) -> str:
        """Fold a completed outcome into the job record and breaker.

        Returns the terminal status; the caller publishes it after the
        job's root span has been recorded.
        """
        job.summary = {
            "completed": outcome.completed(),
            "failed": len(outcome.failures),
            "resumed": outcome.resumed,
            "retries": outcome.retries,
            "pool_restarts": outcome.pool_restarts,
            "timeouts": outcome.timeouts,
        }
        if outcome.failures:
            job.error = outcome.failures[0].to_dict()["error"]
            self.execute_breaker.record_failure(outcome.failures[0])
            self.metrics.counter("service.jobs.partial").inc()
            log.warning(
                "service.job_partial",
                job=job.id,
                completed=outcome.completed(),
                failed=len(outcome.failures),
            )
            return "partial"
        self.execute_breaker.record_success()
        # A fully successful job proves the disk writes again: clear
        # the stashed /healthz storage detail.
        self._storage_error = None
        self.metrics.counter("service.jobs.done").inc()
        log.info(
            f"job {job.id} done: {outcome.completed()} point(s)"
            + (f", {outcome.resumed} resumed" if outcome.resumed else "")
        )
        return "done"

    def _on_stall(self, worker_id: str, busy_seconds: float) -> None:
        """Watchdog verdict: a hung job counts as an execute failure."""
        self.execute_breaker.record_failure(
            PointFailure(
                key=worker_id,
                kind="timeout",
                error_type="SweepTimeoutError",
                message=(
                    f"worker {worker_id} busy {busy_seconds:.1f}s, past the "
                    "job deadline (hung pool?)"
                ),
            )
        )

    # ------------------------------------------------------------------
    # registry and provenance

    def _register(self, points, config: Dict[str, Any]) -> Job:
        with self._jobs_lock:
            self._job_counter += 1
            job_id = f"job-{self._job_counter:06d}-{uuid.uuid4().hex[:8]}"
            job = Job(job_id, points, config)
            # Checkpoints are keyed by config hash, not job id: a
            # resubmission of the same points (after a drain, a partial
            # failure, or a crash) resumes the previous job's completed
            # points instead of recomputing them.
            job.checkpoint_path = str(
                self.spool_dir / f"{config['config_hash']}.ckpt"
            )
            self._jobs[job_id] = job
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        return job

    def _unregister(self, job_id: str) -> None:
        with self._jobs_lock:
            self._jobs.pop(job_id, None)

    def write_obs(self, obs_dir=None) -> RunManifest:
        """Write the service manifest + trace (called on drain).

        The manifest's ``phases`` block carries the ``service_job``
        span aggregation; its config records every job's identity and
        final status, so a drained daemon leaves the same provenance
        trail as a batch run.
        """
        obs_dir = Path(obs_dir) if obs_dir is not None else self.spool_dir
        manifest = RunManifest.build(
            tool="repro-serve",
            config={
                "workload": describe_workload(self.workload),
                "jobs": [job.to_dict() for job in self._jobs.values()],
                "queue": self.queue.snapshot(),
            },
            workload=self.workload,
            tracer=self.tracer,
            metrics=self.metrics,
            failures=[
                {"error": job.error}
                for job in self._jobs.values()
                if job.error
            ],
        )
        manifest.write(obs_dir / "manifest.json")
        self.tracer.write_jsonl(obs_dir / "trace.jsonl")
        return manifest


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes the service's HTTP API; one instance per request."""

    #: Quiet down the default per-request stderr lines.
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SimulationService:
        """The owning server's service core."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Route request logs through the structured logger (debug)."""
        log.debug("service.http", line=format % args)

    def _send_body(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, code: int, payload: Any, headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send_body(code, body, "application/json", headers)

    def _send_dashboard(self, view: str) -> None:
        """Serve one dashboard rendering.

        The dashboard stays up while draining — that is exactly when
        an operator wants it — but carries the readiness verdict as
        its HTTP code (503, like ``/readyz``) so probes and dashboards
        agree.
        """
        payload = self.service.dashboard_payload()
        code = 200 if payload["status"]["ready"] else 503
        if view == "json":
            self._send_json(code, payload)
        elif view == "txt":
            body = render_dashboard_text(payload).encode("ascii")
            self._send_body(code, body, "text/plain; charset=us-ascii")
        else:
            body = render_dashboard_html(payload).encode("utf-8")
            self._send_body(code, body, "text/html; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Serve /healthz /readyz /metrics /dashboard* /jobs[/<id>[/trace]]."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.service.health())
        elif path == "/readyz":
            ready, reason = self.service.ready()
            self._send_json(
                200 if ready else 503, {"ready": ready, "reason": reason}
            )
        elif path == "/metrics":
            self._send_json(200, self.service.status())
        elif path == "/dashboard":
            self._send_dashboard("html")
        elif path == "/dashboard.txt":
            self._send_dashboard("txt")
        elif path == "/dashboard.json":
            self._send_dashboard("json")
        elif path == "/jobs":
            self._send_json(200, {"jobs": self.service.jobs()})
        elif path.startswith("/jobs/") and path.endswith("/trace"):
            job_id = path[len("/jobs/"):-len("/trace")]
            flight = self.service.job_trace(job_id)
            if flight is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, flight)
        elif path.startswith("/jobs/"):
            record = self.service.job(path[len("/jobs/"):])
            if record is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, record)
        else:
            self._send_json(404, {"error": f"no route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Serve POST /jobs: admit + enqueue, mapping errors to codes."""
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._send_json(404, {"error": f"no route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would block until the client hangs up;
                # the body's extent is unknown, so drop the connection.
                self.close_connection = True
                self._send_json(400, {"error": "bad Content-Length"})
                return
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad JSON body: {exc}"})
            return
        try:
            record = self.service.submit(payload)
        except QueueFullError as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except CircuitOpenError as exc:
            self._send_json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except AdmissionError as exc:
            self._send_json(400, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(202, record)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to a :class:`SimulationService`.

    Binds eagerly (port 0 picks a free port — tests use this), serves
    on :meth:`serve_forever` until :meth:`shutdown`.
    """

    daemon_threads = True

    def __init__(self, service: SimulationService, host: str, port: int):
        self.service = service
        super().__init__((host, port), _ServiceHandler)

    @property
    def address(self) -> "tuple[str, int]":
        """The bound (host, port) pair."""
        return self.server_address[0], self.server_address[1]


def serve_in_thread(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> "tuple[ServiceHTTPServer, threading.Thread]":
    """Start the HTTP server on a daemon thread; returns both handles.

    The embedding entry point (tests, notebooks): the caller owns
    ``server.shutdown()`` and the service's :meth:`drain`.
    """
    server = ServiceHTTPServer(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server, thread
