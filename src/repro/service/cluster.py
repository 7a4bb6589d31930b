"""The sharded cluster front door behind ``repro-cluster``.

:class:`ClusterService` turns N independent ``repro-serve`` shards
into one service the paper's cost argument can be *measured* against
at scale:

- **placement** — submissions route by consistent hashing on the
  job's ``config_hash`` (:mod:`repro.service.ring`), so a given sweep
  configuration always lands on the same shard: its crash-safe
  checkpoint and its mmap-able ``RPM2`` stream artifacts stay
  shard-local, and resubmission *resumes* instead of recomputing;
- **failure lifecycle** — every shard sits behind its own
  :class:`~repro.service.breaker.CircuitBreaker`: ``closed`` is
  healthy, ``open`` is ejected from routing, and the half-open rejoin
  is a real probe through the breaker machinery, not a timer reset. A
  background prober heartbeats ``/healthz``, detects process death,
  and restarts dead shards with seeded, jittered exponential backoff;
- **failover** — jobs in flight on a lost shard are *re-admitted*
  onto the ring successor. Because every shard shares one spool
  directory and checkpoints are keyed by ``config_hash``, the
  successor resumes the dead shard's completed points from its
  fsync'd checkpoint — the advisory lock's PID+start-time staleness
  check arbitrates the takeover — and the final results are
  bit-identical to an undisturbed run;
- **aggregation** — ``/metrics``, ``/jobs``, and the dashboards
  merge every shard's state through the mergeable
  :class:`~repro.obs.metrics.MetricsRegistry` (integer quantile-
  histogram buckets add exactly, so cluster-wide p99s are honest);
- **reads** — job-status GETs are idempotent, so they are *hedged*:
  a short-deadline first attempt, then a full-deadline retry against
  the submission's *current* shard (which may have changed under
  failover between the attempts);
- **drain** — cluster shutdown is two-phase: stop admitting (429),
  fan SIGTERM out to every shard, then wait for each shard's own
  drain to flush its checkpoints before reporting clean.

The front door is control-plane only — it never runs simulation work
itself — so it stays responsive while shards die, restart, and churn
underneath it.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    QueueFullError,
    ReproError,
    ServiceError,
    ShardUnavailableError,
)
from repro.obs.context import new_trace
from repro.obs.log import log
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.spans import Tracer, get_tracer
from repro.obs.trace_report import build_span_tree
from repro.report.dashboard import (
    build_dashboard_payload,
    render_dashboard_html,
    render_dashboard_text,
)
from repro.report.trajectory import TrajectoryReport
from repro.service.admission import parse_points
from repro.service.breaker import CLOSED, OPEN, CircuitBreaker
from repro.service.ring import ConsistentHashRing
from repro.service.shard import ShardHandle

#: Terminal shard-job states — a submission in one of these is never
#: re-admitted on failover.
TERMINAL_STATES = frozenset({"done", "partial", "failed", "checkpointed"})


class Submission:
    """The router's record of one accepted job: payload + placement.

    The payload is retained verbatim because it *is* the failover
    unit: re-admission resubmits it to the ring successor, and the
    shard-side checkpoint (keyed by the same ``config_hash``) turns
    that resubmission into a resume.
    """

    def __init__(
        self, cluster_id: str, payload: Dict[str, Any], key: str
    ) -> None:
        self.id = cluster_id
        self.payload = payload
        self.config_hash = key
        self.shard: Optional[str] = None
        self.shard_job_id: Optional[str] = None
        self.status = "routed"
        self.readmissions = 0
        self.shard_history: List[str] = []
        self.context = new_trace()

    @property
    def terminal(self) -> bool:
        """Whether the last observed shard status is terminal."""
        return self.status in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable routing record for the HTTP API."""
        return {
            "id": self.id,
            "config_hash": self.config_hash,
            "shard": self.shard,
            "shard_job_id": self.shard_job_id,
            "status": self.status,
            "readmissions": self.readmissions,
            "shard_history": list(self.shard_history),
            "trace_id": self.context.trace_id,
        }


class ClusterService:
    """Front-door router and supervisor over N shard handles.

    Args:
        shards: The shard handles (started by :meth:`start`).
        cluster_dir: Directory for the cluster manifest and (for
            process shards) port/log files.
        metrics: Registry for the router's ``cluster.*`` instruments.
        tracer: Tracer receiving the per-submission routing spans
            (``route`` / ``shard_failover`` / ``readmit``).
        probe_interval: Seconds between health-probe sweeps.
        probe_timeout: Per-probe HTTP deadline.
        failure_threshold: Consecutive probe/submit failures that
            eject a shard (open its breaker).
        breaker_reset: Seconds an ejected shard waits before its
            half-open rejoin probe.
        restart: Whether dead shard processes are restarted.
        restart_backoff: Base seconds of the restart backoff
            (doubles per restart of the same shard, jittered).
        restart_backoff_cap: Ceiling on the backoff, pre-jitter.
        jitter_seed: Seed for the restart-jitter PRNG (deterministic
            by default, like every other seed in this repo).
        request_timeout: Full deadline for proxied shard requests.
        hedge_timeout: Short first-attempt deadline for hedged
            idempotent status reads.
        bench_history_path: Trajectory file for the dashboards.
    """

    def __init__(
        self,
        shards: List[ShardHandle],
        cluster_dir="repro-cluster",
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        probe_interval: float = 0.25,
        probe_timeout: float = 2.0,
        failure_threshold: int = 2,
        breaker_reset: float = 2.0,
        restart: bool = True,
        restart_backoff: float = 0.5,
        restart_backoff_cap: float = 10.0,
        jitter_seed: int = 1989,
        request_timeout: float = 30.0,
        hedge_timeout: float = 2.0,
        bench_history_path=None,
    ) -> None:
        if not shards:
            raise ServiceError("a cluster needs at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate shard names: {names}")
        self.cluster_dir = Path(cluster_dir)
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.shards: Dict[str, ShardHandle] = {s.name: s for s in shards}
        self.ring = ConsistentHashRing(names)
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                f"shard.{name}",
                failure_threshold=failure_threshold,
                reset_timeout=breaker_reset,
                metrics=self.metrics,
            )
            for name in names
        }
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.restart_enabled = restart
        self.restart_backoff = restart_backoff
        self.restart_backoff_cap = restart_backoff_cap
        self.request_timeout = request_timeout
        self.hedge_timeout = hedge_timeout
        self.bench_history_path = (
            Path(bench_history_path) if bench_history_path is not None else None
        )
        import random

        self._jitter_rng = random.Random(jitter_seed)
        self._restart_due: Dict[str, float] = {}
        self._death_handled: Dict[str, bool] = {}
        self._submissions: Dict[str, Submission] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._draining = threading.Event()
        self._stop_prober = threading.Event()
        self._prober: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self, ready_timeout: float = 30.0) -> None:
        """Start every shard, wait for readiness, start the prober."""
        self.cluster_dir.mkdir(parents=True, exist_ok=True)
        for shard in self.shards.values():
            shard.start()
        for shard in self.shards.values():
            if hasattr(shard, "wait_ready"):
                shard.wait_ready(timeout=ready_timeout)
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-cluster-prober", daemon=True
        )
        self._prober.start()
        log.info(
            f"cluster started: {len(self.shards)} shard(s) on the ring"
        )

    def drain(self, grace: float = 30.0) -> bool:
        """Two-phase cluster drain; ``True`` iff every shard drained.

        Phase one stops admission (submissions get 429) and fans
        SIGTERM out to every live shard — each shard runs its *own*
        two-phase drain, flushing in-flight jobs to their fsync'd
        checkpoints. Phase two waits up to ``grace`` seconds for all
        of them; stragglers are killed (their checkpoints are durable
        per point, so nothing complete is lost) and the drain reports
        unclean. The cluster manifest is written either way.
        """
        self._draining.set()
        self._stop_prober.set()
        if self._prober is not None:
            self._prober.join(timeout=max(2.0, self.probe_interval * 4))
        for shard in self.shards.values():
            if shard.is_alive():
                shard.terminate()
        deadline = time.monotonic() + grace
        clean = True
        for shard in self.shards.values():
            if not shard.join(max(0.0, deadline - time.monotonic())):
                log.warning(
                    "cluster.shard_drain_timeout", shard=shard.name
                )
                shard.kill()
                shard.join(5.0)
                clean = False
        self.write_obs()
        log.info(
            f"cluster drained ({'clean' if clean else 'killed stragglers'}): "
            f"{len(self._submissions)} submission(s) routed"
        )
        return clean

    @property
    def draining(self) -> bool:
        """Whether a cluster drain has started."""
        return self._draining.is_set()

    def ready(self) -> "tuple[bool, str]":
        """Cluster readiness: at least one routable shard, not draining."""
        if self.draining:
            return False, "draining"
        routable = self.routable_shards()
        if not routable:
            return False, "no routable shards"
        return True, f"{len(routable)}/{len(self.shards)} shards routable"

    def routable_shards(self) -> List[str]:
        """Shards that are alive with a non-open breaker, sorted."""
        names = [
            name
            for name, shard in self.shards.items()
            if shard.is_alive()
            and shard.address is not None
            and self.breakers[name].state != OPEN
        ]
        self.metrics.gauge("cluster.shards.routable").set(len(names))
        return sorted(names)

    # ------------------------------------------------------------------
    # submission path

    @staticmethod
    def routing_key(payload: Dict[str, Any]) -> str:
        """The ``config_hash`` a submission routes (and checkpoints) by.

        Computed exactly like shard-side admission computes it —
        parse, canonicalize, content-address — so the router's ring
        key and the shard's checkpoint identity are the same value.

        Raises:
            AdmissionError: Malformed payload (mapped to HTTP 400 at
                the door, without bothering a shard).
        """
        if not isinstance(payload, dict):
            raise AdmissionError("submission must be a JSON object")
        points = parse_points(payload.get("points"))
        return config_hash([asdict(point) for point in points])

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Route one submission along the ring's preference order.

        The owner shard gets the job; ejected, dead, and unreachable
        shards are skipped to the ring successor (each skip recorded
        against the shard's breaker). A shard's 429 is *backpressure,
        not failure* — it propagates to the client (with the shard's
        jittered ``Retry-After``) instead of overflowing onto the
        next shard and breaking checkpoint affinity.

        Raises:
            AdmissionError: Malformed payload (HTTP 400).
            QueueFullError: Draining, or the owning shard shed (429).
            ShardUnavailableError: No routable shard accepted (503).
        """
        if self.draining:
            raise QueueFullError(
                "cluster is draining; no new jobs are admitted"
            )
        key = self.routing_key(payload)
        submission = self._register(payload, key)
        started = time.perf_counter()
        attempts: List[str] = []
        for name in self.ring.preference_order(key):
            shard = self.shards[name]
            if not shard.is_alive() or shard.address is None:
                attempts.append(f"{name}: dead")
                continue
            breaker = self.breakers[name]
            try:
                breaker.allow()
            except CircuitOpenError:
                attempts.append(f"{name}: ejected")
                continue
            try:
                status, body, _ = shard.request(
                    "POST",
                    "/jobs",
                    payload=payload,
                    timeout=self.request_timeout,
                )
            except ShardUnavailableError as exc:
                breaker.record_failure(exc)
                self.metrics.counter("cluster.submit.unreachable").inc()
                attempts.append(f"{name}: unreachable")
                continue
            breaker.record_success()
            if status == 202:
                self._place(submission, name, body)
                self.tracer.record_span(
                    "route",
                    time.perf_counter() - started,
                    attrs={
                        "job": submission.id,
                        "shard": name,
                        "config_hash": key,
                    },
                    trace_id=submission.context.trace_id,
                    span_id=submission.context.span_id,
                )
                self.metrics.counter("cluster.submit.routed").inc()
                self.metrics.quantile_histogram(
                    "latency.route_seconds"
                ).observe(time.perf_counter() - started)
                record = submission.to_dict()
                record["shard_record"] = body
                return record
            self._unregister(submission.id)
            if status == 429:
                self.metrics.counter("cluster.submit.shed").inc()
                raise QueueFullError(
                    f"shard {name!r} shed the job: "
                    f"{(body or {}).get('error')}",
                    retry_after=float((body or {}).get("retry_after", 1.0)),
                )
            if status == 400:
                self.metrics.counter("cluster.submit.rejected").inc()
                raise AdmissionError(
                    f"shard {name!r} rejected the job: "
                    f"{(body or {}).get('error')}"
                )
            # 5xx: the shard answered but cannot take work (its own
            # breaker open, draining, internal error). Try the ring
            # successor — availability over strict affinity; the
            # checkpoint is in the shared spool either way.
            submission = self._register(payload, key, reuse=submission)
            attempts.append(f"{name}: http {status}")
        self._unregister(submission.id)
        self.metrics.counter("cluster.submit.unroutable").inc()
        raise ShardUnavailableError(
            "no shard could accept the job: " + "; ".join(attempts)
        )

    def _register(
        self,
        payload: Dict[str, Any],
        key: str,
        reuse: Optional[Submission] = None,
    ) -> Submission:
        if reuse is not None:
            with self._lock:
                self._submissions[reuse.id] = reuse
            return reuse
        with self._lock:
            self._counter += 1
            cluster_id = f"cjob-{self._counter:06d}-{uuid.uuid4().hex[:8]}"
            submission = Submission(cluster_id, payload, key)
            self._submissions[cluster_id] = submission
        return submission

    def _unregister(self, cluster_id: str) -> None:
        with self._lock:
            self._submissions.pop(cluster_id, None)

    def _place(
        self, submission: Submission, shard: str, body: Dict[str, Any]
    ) -> None:
        with self._lock:
            submission.shard = shard
            submission.shard_job_id = (body or {}).get("id")
            submission.status = (body or {}).get("status", "queued")
            submission.shard_history.append(shard)

    # ------------------------------------------------------------------
    # reads (hedged)

    def job(self, cluster_id: str) -> Optional[Dict[str, Any]]:
        """The routed job's merged record, or ``None`` if unknown.

        A hedged idempotent read: a short-deadline attempt against the
        submission's current shard, then — because failover may move
        the job between attempts — a re-resolved, full-deadline retry.
        If every attempt fails the router's own last-known record is
        returned (stale-but-honest: ``shard_reachable`` is ``False``).
        """
        with self._lock:
            submission = self._submissions.get(cluster_id)
        if submission is None:
            return None
        record = submission.to_dict()
        for timeout in (self.hedge_timeout, self.request_timeout):
            with self._lock:
                shard_name = submission.shard
                shard_job = submission.shard_job_id
            shard = self.shards.get(shard_name) if shard_name else None
            if shard is None or not shard.is_alive():
                continue
            try:
                status, body, _ = shard.request(
                    "GET", f"/jobs/{shard_job}", timeout=timeout
                )
            except ShardUnavailableError:
                self.metrics.counter("cluster.reads.hedged").inc()
                continue
            if status == 200 and isinstance(body, dict):
                with self._lock:
                    submission.status = body.get("status", submission.status)
                record = submission.to_dict()
                record["shard_record"] = body
                record["shard_reachable"] = True
                return record
        record["shard_record"] = None
        record["shard_reachable"] = False
        return record

    def job_trace(self, cluster_id: str) -> Optional[Dict[str, Any]]:
        """The cluster-level flight record of one submission.

        The router's own spans (``route``, ``shard_failover``,
        ``readmit``) assembled as a causal tree, plus the current
        shard's job trace fetched live — so one document shows the
        whole story: where the job went, when its shard died, where
        it was re-admitted, and what the shard(s) did with it.
        """
        with self._lock:
            submission = self._submissions.get(cluster_id)
        if submission is None:
            return None
        records = [
            record.to_dict()
            for record in self.tracer.records_for_trace(
                submission.context.trace_id
            )
        ]
        shard_trace = None
        shard = (
            self.shards.get(submission.shard) if submission.shard else None
        )
        if shard is not None and shard.is_alive():
            try:
                status, body, _ = shard.request(
                    "GET",
                    f"/jobs/{submission.shard_job_id}/trace",
                    timeout=self.hedge_timeout,
                )
                if status == 200:
                    shard_trace = body
            except ShardUnavailableError:
                pass
        return {
            "job": cluster_id,
            "trace_id": submission.context.trace_id,
            "status": submission.status,
            "spans": len(records),
            "tree": build_span_tree(records),
            "shard": submission.shard,
            "shard_job_id": submission.shard_job_id,
            "shard_trace": shard_trace,
        }

    def jobs(self) -> List[Dict[str, Any]]:
        """Every shard's job records, shard-annotated, merged."""
        merged: List[Dict[str, Any]] = []
        for name in sorted(self.shards):
            shard = self.shards[name]
            if not shard.is_alive() or shard.address is None:
                continue
            try:
                status, body, _ = shard.request(
                    "GET", "/jobs", timeout=self.hedge_timeout
                )
            except ShardUnavailableError:
                continue
            if status != 200 or not isinstance(body, dict):
                continue
            for record in body.get("jobs", []):
                record = dict(record)
                record["shard"] = name
                merged.append(record)
        return merged

    def submissions(self) -> List[Dict[str, Any]]:
        """The router's own routing records, oldest first."""
        with self._lock:
            return [s.to_dict() for s in self._submissions.values()]

    # ------------------------------------------------------------------
    # aggregation

    def shard_states(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard lifecycle rows for ``/metrics`` and the dashboard.

        Byte-stable under a fixed cluster state: every field is a
        count, a name, or a state label — never an age or a countdown.
        """
        with self._lock:
            readmitted: Dict[str, int] = {}
            for submission in self._submissions.values():
                for name in submission.shard_history[1:]:
                    readmitted[name] = readmitted.get(name, 0) + 1
        rows: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self.shards):
            shard = self.shards[name]
            breaker = self.breakers[name]
            alive = shard.is_alive()
            breaker_state = breaker.state
            if not alive:
                state = "dead"
            elif breaker_state == OPEN:
                state = "ejected"
            elif breaker_state == CLOSED:
                state = "healthy"
            else:
                state = "half_open"
            address = shard.address
            rows[name] = {
                "name": name,
                "state": state,
                "alive": alive,
                "address": (
                    f"{address[0]}:{address[1]}" if address else None
                ),
                "breaker": breaker_state,
                "restarts": getattr(shard, "restarts", 0),
                "readmitted_to": readmitted.get(name, 0),
                "queue_depth": None,
                "jobs": None,
                "execute_breaker": None,
            }
        return rows

    def status(self) -> Dict[str, Any]:
        """The aggregated operational snapshot for ``/metrics``.

        Fans a ``/metrics`` read out to every live shard and folds the
        snapshots through :meth:`MetricsRegistry.merge_snapshot` —
        counters add, quantile-histogram buckets add bit-identically —
        then decorates each shard's lifecycle row with its queue
        depth, job count, and execute-breaker state.
        """
        shards = self.shard_states()
        merged = MetricsRegistry()
        queue_depth = 0
        queue_capacity = 0
        shedding = False
        jobs_by_status: Dict[str, int] = {}
        for name, row in shards.items():
            shard = self.shards[name]
            if not row["alive"] or shard.address is None:
                continue
            try:
                status, body, _ = shard.request(
                    "GET", "/metrics", timeout=self.probe_timeout
                )
            except ShardUnavailableError:
                continue
            if status != 200 or not isinstance(body, dict):
                continue
            merged.merge_snapshot(body.get("metrics") or {})
            queue = body.get("queue") or {}
            queue_depth += queue.get("depth") or 0
            queue_capacity += queue.get("capacity") or 0
            shedding = shedding or bool(queue.get("shedding"))
            row["queue_depth"] = queue.get("depth")
            breakers = body.get("breakers") or {}
            row["execute_breaker"] = (breakers.get("execute") or {}).get(
                "state"
            )
            by_status = body.get("jobs") or {}
            row["jobs"] = sum(by_status.values())
            for state, count in by_status.items():
                jobs_by_status[state] = jobs_by_status.get(state, 0) + count
        ready, reason = self.ready()
        latency = {
            name: merged.quantile_histogram(name).summary()
            for name in (
                "latency.admission_seconds",
                "latency.queue_wait_seconds",
                "latency.execute_seconds",
                "latency.job_seconds",
            )
        }
        merged.merge(self.metrics)
        replay = {
            "counters": {
                name: merged.counter(name).value
                for name in (
                    "miss_stream.artifact_hits",
                    "miss_stream.artifact_misses",
                )
            },
        }
        return {
            "ready": ready,
            "reason": reason,
            "draining": self.draining,
            "queue": {
                "depth": queue_depth,
                "capacity": queue_capacity,
                "shedding": shedding,
                "closed": self.draining,
            },
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self.breakers.items())
            },
            "jobs": jobs_by_status,
            "shards": shards,
            "replay": replay,
            "latency": latency,
            "metrics": merged.snapshot(),
        }

    def trajectory(self) -> Optional[TrajectoryReport]:
        """The bench trajectory report, or ``None`` if unconfigured."""
        if self.bench_history_path is None:
            return None
        return TrajectoryReport.from_file(self.bench_history_path)

    def dashboard_payload(self) -> Dict[str, Any]:
        """The composed cluster ``/dashboard.json`` document."""
        return build_dashboard_payload(
            self.status(), self.jobs(), self.trajectory()
        )

    def healthz(self) -> Dict[str, Any]:
        """Front-door liveness: always answerable while the router runs."""
        return {
            "ok": True,
            "draining": self.draining,
            "shards": {
                name: shard.is_alive()
                for name, shard in sorted(self.shards.items())
            },
        }

    # ------------------------------------------------------------------
    # supervision (prober thread)

    def _probe_loop(self) -> None:
        while not self._stop_prober.wait(self.probe_interval):
            try:
                self.probe_once()
            except Exception as exc:  # pragma: no cover - belt and braces
                log.error(f"cluster.prober_error: {type(exc).__name__}: {exc}")

    def probe_once(self, now: Optional[float] = None) -> None:
        """One supervision sweep: probe, eject, fail over, restart.

        Extracted from the prober thread so tests (and the chaos
        harness) can drive the lifecycle deterministically.
        """
        now = time.monotonic() if now is None else now
        for name in sorted(self.shards):
            shard = self.shards[name]
            breaker = self.breakers[name]
            if not shard.is_alive():
                self._handle_death(name, now)
                continue
            self._death_handled.pop(name, None)
            try:
                breaker.call(lambda s=shard: self._probe(s))
            except CircuitOpenError:
                pass  # still ejected; the reset timeout gates the rejoin
            except ShardUnavailableError:
                self.metrics.counter("cluster.probe.failures").inc()
        self._refresh_submission_statuses()
        self.routable_shards()  # refresh the gauge

    def _probe(self, shard: ShardHandle) -> None:
        status, _, _ = shard.request(
            "GET", "/healthz", timeout=self.probe_timeout
        )
        if status != 200:
            raise ShardUnavailableError(
                f"shard {shard.name!r} /healthz answered {status}"
            )

    def _handle_death(self, name: str, now: float) -> None:
        """First detection: eject, fail over, schedule the restart."""
        if not self._death_handled.get(name):
            self._death_handled[name] = True
            self.metrics.counter("cluster.failover.deaths").inc()
            breaker = self.breakers[name]
            # A dead process is not a statistic to accumulate — eject
            # immediately so the ring stops offering it work.
            while breaker.state != OPEN:
                breaker.record_failure(
                    ShardUnavailableError(f"shard {name!r} process died")
                )
            log.warning("cluster.shard_died", shard=name)
            if self.restart_enabled and name not in self._restart_due:
                shard = self.shards[name]
                restarts = getattr(shard, "restarts", 0)
                backoff = min(
                    self.restart_backoff_cap,
                    self.restart_backoff * (2 ** restarts),
                )
                backoff *= 1.0 + self._jitter_rng.random()
                self._restart_due[name] = now + backoff
                log.info(
                    "cluster.shard_restart_scheduled",
                    shard=name,
                    backoff_s=round(backoff, 3),
                )
        self._failover_from(name)
        due = self._restart_due.get(name)
        if due is not None and now >= due and not self.draining:
            self._restart_due.pop(name, None)
            shard = self.shards[name]
            shard.start()
            try:
                if hasattr(shard, "wait_ready"):
                    shard.wait_ready(timeout=15.0)
            except ServiceError as exc:
                log.error(f"cluster.shard_restart_failed: {exc}")
                return
            self.metrics.counter("cluster.failover.restarts").inc()
            self._death_handled.pop(name, None)
            log.info("cluster.shard_restarted", shard=name)

    def _failover_from(self, dead: str) -> None:
        """Re-admit the dead shard's non-terminal jobs onto the ring.

        Each orphaned submission goes to the first *routable* shard in
        its key's preference order (excluding the dead one) — the ring
        successor in the common case. The successor resumes the shared
        checkpoint, so completed points are restored, not recomputed.
        """
        with self._lock:
            orphans = [
                s
                for s in self._submissions.values()
                if s.shard == dead and not s.terminal
            ]
        if not orphans:
            return
        routable = set(self.routable_shards()) - {dead}
        for submission in orphans:
            target = None
            for name in self.ring.preference_order(submission.config_hash):
                if name in routable:
                    target = name
                    break
            if target is None:
                log.warning(
                    "cluster.failover_stalled",
                    job=submission.id,
                    reason="no routable successor",
                )
                continue
            started = time.perf_counter()
            self.tracer.record_span(
                "shard_failover",
                0.0,
                attrs={
                    "job": submission.id,
                    "from": dead,
                    "config_hash": submission.config_hash,
                },
                trace_id=submission.context.trace_id,
                parent_span_id=submission.context.span_id,
            )
            try:
                status, body, _ = self.shards[target].request(
                    "POST",
                    "/jobs",
                    payload=submission.payload,
                    timeout=self.request_timeout,
                )
            except ShardUnavailableError as exc:
                self.breakers[target].record_failure(exc)
                log.warning(
                    "cluster.failover_retry_next_sweep",
                    job=submission.id,
                    target=target,
                )
                continue
            if status != 202:
                log.warning(
                    "cluster.failover_rejected",
                    job=submission.id,
                    target=target,
                    http=status,
                )
                continue
            with self._lock:
                submission.shard = target
                submission.shard_job_id = (body or {}).get("id")
                submission.status = (body or {}).get("status", "queued")
                submission.readmissions += 1
                submission.shard_history.append(target)
            self.metrics.counter("cluster.failover.readmitted").inc()
            self.tracer.record_span(
                "readmit",
                time.perf_counter() - started,
                attrs={
                    "job": submission.id,
                    "shard": target,
                    "from": dead,
                    "resumed_checkpoint": True,
                },
                trace_id=submission.context.trace_id,
                parent_span_id=submission.context.span_id,
            )
            log.info(
                "cluster.job_readmitted",
                job=submission.id,
                from_shard=dead,
                to_shard=target,
            )

    def _refresh_submission_statuses(self) -> None:
        """Piggyback terminal-status tracking on the probe sweep.

        One ``/jobs`` read per live shard per sweep keeps the router's
        terminal set fresh, so failover never re-admits a job that
        already finished.
        """
        with self._lock:
            open_by_shard: Dict[str, List[Submission]] = {}
            for submission in self._submissions.values():
                if submission.terminal or submission.shard is None:
                    continue
                open_by_shard.setdefault(submission.shard, []).append(
                    submission
                )
        for name, pending in open_by_shard.items():
            shard = self.shards.get(name)
            if shard is None or not shard.is_alive():
                continue
            try:
                status, body, _ = shard.request(
                    "GET", "/jobs", timeout=self.probe_timeout
                )
            except ShardUnavailableError:
                continue
            if status != 200 or not isinstance(body, dict):
                continue
            by_id = {
                record.get("id"): record for record in body.get("jobs", [])
            }
            with self._lock:
                for submission in pending:
                    record = by_id.get(submission.shard_job_id)
                    if record is not None:
                        submission.status = record.get(
                            "status", submission.status
                        )

    # ------------------------------------------------------------------
    # provenance

    def write_obs(self, obs_dir=None) -> RunManifest:
        """Write the cluster manifest + routing trace (called on drain)."""
        obs_dir = Path(obs_dir) if obs_dir is not None else self.cluster_dir
        obs_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.build(
            tool="repro-cluster",
            config={
                "shards": {
                    name: row
                    for name, row in self.shard_states().items()
                },
                "submissions": self.submissions(),
            },
            tracer=self.tracer,
            metrics=self.metrics,
        )
        manifest.write(obs_dir / "manifest.json")
        self.tracer.write_jsonl(obs_dir / "trace.jsonl")
        return manifest


class _ClusterHandler(BaseHTTPRequestHandler):
    """Routes the cluster front door's HTTP API (mirrors the shard API)."""

    protocol_version = "HTTP/1.1"

    @property
    def cluster(self) -> ClusterService:
        """The owning server's cluster core."""
        return self.server.cluster  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Route request logs through the structured logger (debug)."""
        log.debug("cluster.http", line=format % args)

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
        payload = self.cluster.dashboard_payload()
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
        """Serve /healthz /readyz /metrics /shards /dashboard* /jobs..."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.cluster.healthz())
        elif path == "/readyz":
            ready, reason = self.cluster.ready()
            self._send_json(
                200 if ready else 503, {"ready": ready, "reason": reason}
            )
        elif path == "/metrics":
            self._send_json(200, self.cluster.status())
        elif path == "/shards":
            self._send_json(200, {"shards": self.cluster.shard_states()})
        elif path == "/dashboard":
            self._send_dashboard("html")
        elif path == "/dashboard.txt":
            self._send_dashboard("txt")
        elif path == "/dashboard.json":
            self._send_dashboard("json")
        elif path == "/jobs":
            self._send_json(
                200,
                {
                    "jobs": self.cluster.jobs(),
                    "submissions": self.cluster.submissions(),
                },
            )
        elif path.startswith("/jobs/") and path.endswith("/trace"):
            job_id = path[len("/jobs/"):-len("/trace")]
            flight = self.cluster.job_trace(job_id)
            if flight is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, flight)
        elif path.startswith("/jobs/"):
            record = self.cluster.job(path[len("/jobs/"):])
            if record is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, record)
        else:
            self._send_json(404, {"error": f"no route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Serve POST /jobs: route to a shard, mapping errors to codes."""
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._send_json(404, {"error": f"no route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad JSON body: {exc}"})
            return
        try:
            record = self.cluster.submit(payload)
        except QueueFullError as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except ShardUnavailableError as exc:
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


class ClusterHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to a :class:`ClusterService`."""

    daemon_threads = True

    def __init__(self, cluster: ClusterService, host: str, port: int):
        self.cluster = cluster
        super().__init__((host, port), _ClusterHandler)

    @property
    def address(self) -> "tuple[str, int]":
        """The bound (host, port) pair."""
        return self.server_address[0], self.server_address[1]


def serve_cluster_in_thread(
    cluster: ClusterService, host: str = "127.0.0.1", port: int = 0
) -> "tuple[ClusterHTTPServer, threading.Thread]":
    """Serve the front door on a daemon thread; returns both handles."""
    server = ClusterHTTPServer(cluster, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-cluster-http", daemon=True
    )
    thread.start()
    return server, thread
