"""``repro-serve``: run the simulation daemon on local HTTP.

Starts a :class:`~repro.service.server.SimulationService` and serves
its API on loopback until a shutdown signal arrives::

    repro-serve --port 8321 --queue-size 16 --workers 1
    repro-serve --max-probes 2000000 --breaker-threshold 3
    repro-serve --spool-dir /tmp/serve-spool --job-deadline 600

Clients submit sweep jobs as JSON::

    curl -s localhost:8321/jobs -d '{"points": [
        {"l1": "4K-16", "l2": "64K-32", "associativity": 2}]}'

and poll ``GET /jobs/<id>`` for the result summary. ``/healthz``
reports liveness, ``/readyz`` readiness (503 while draining or while
the execution breaker is open), ``/metrics`` the full operational
snapshot, and ``/dashboard`` (HTML), ``/dashboard.txt`` (byte-stable
ASCII), ``/dashboard.json`` the composed operator dashboard with the
``--bench-history`` trajectory.

Shutdown is the two-phase drain contract: the first SIGTERM/SIGINT
stops admission, lets in-flight jobs finish (or abandons them to
their fsync'd checkpoints after ``--drain-grace`` seconds), writes
the service manifest into the spool directory, and exits 0. A second
signal hard-exits with status 130.

Exit codes: 0 — clean drain; 130 — second-signal hard exit; 2 — bad
usage or a :class:`~repro.errors.ReproError` during startup.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.configs import default_workload
from repro.obs.log import log
from repro.resilience.policy import RetryPolicy
from repro.service.drain import DrainCoordinator
from repro.service.server import ServiceHTTPServer, SimulationService


def build_service(args) -> SimulationService:
    """Construct the service core from parsed CLI arguments."""
    return SimulationService(
        workload=default_workload(scale=args.scale, seed=args.seed),
        spool_dir=args.spool_dir,
        queue_size=args.queue_size,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        retry_after=args.retry_after,
        max_probe_budget=args.max_probes,
        workers=args.workers,
        processes=args.processes,
        retry=RetryPolicy(
            max_attempts=args.max_attempts, timeout=args.timeout
        ),
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        job_deadline=args.job_deadline,
        bench_history_path=args.bench_history,
        scrub_interval=args.scrub_interval,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: serve until drained; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve simulation sweep jobs over local HTTP with "
        "backpressure, circuit breakers, and graceful drain.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8321, help="0 picks a free port"
    )
    parser.add_argument(
        "--spool-dir",
        default="repro-serve-spool",
        help="directory for job checkpoints and the drain manifest",
    )
    parser.add_argument(
        "--queue-size", type=int, default=16, help="hard job-queue bound"
    )
    parser.add_argument(
        "--high-watermark",
        type=int,
        default=None,
        help="queue depth at which load shedding starts (default: capacity)",
    )
    parser.add_argument(
        "--low-watermark",
        type=int,
        default=None,
        help="queue depth at which shedding stops (default: high - 1)",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="Retry-After hint (seconds) on 429 responses",
    )
    parser.add_argument(
        "--max-probes",
        type=int,
        default=None,
        help="admission budget: max estimated probes per job",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="job-worker thread count"
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="process-pool size per job (default: CPU count)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock timeout (seconds)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive failures that open a circuit breaker",
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        help="seconds before an open breaker admits a half-open probe",
    )
    parser.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        help="watchdog budget per job (seconds); unset disables it",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight jobs on drain before "
        "abandoning them to their checkpoints",
    )
    parser.add_argument(
        "--bench-history",
        metavar="FILE",
        default="BENCH_simulator.json",
        help="benchmark trajectory history shown on /dashboard "
        "(missing file renders as an empty trajectory)",
    )
    parser.add_argument(
        "--scrub-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run the background storage scrubber over the spool every "
        "SECONDS (scan-only; publishes storage.scrub.* metrics and "
        "flips /readyz on unrepairable corruption; unset disables it)",
    )
    parser.add_argument(
        "--stream-artifacts",
        metavar="DIR",
        default=None,
        help="persist captured miss streams as content-addressed RPM2 "
        "artifacts in DIR; jobs and their workers mmap them on reuse",
    )
    args = parser.parse_args(argv)
    if args.queue_size < 1:
        parser.error("--queue-size must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    # Via the environment so job workers (forked per job) inherit it.
    if args.stream_artifacts is not None:
        os.environ["REPRO_STREAM_ARTIFACTS"] = args.stream_artifacts

    service = build_service(args)
    server = ServiceHTTPServer(service, args.host, args.port)
    coordinator = DrainCoordinator()
    coordinator.install()
    service.start()

    host, port = server.address
    log.info(f"repro-serve listening on http://{host}:{port}")
    import threading

    http_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    http_thread.start()
    try:
        coordinator.wait()
        # First signal received: stop accepting connections, then drain
        # the queue and flush observability artifacts.
        server.shutdown()
        server.server_close()
        clean = service.drain(grace=args.drain_grace)
    finally:
        coordinator.uninstall()
    if not clean:
        # A job was abandoned to its checkpoint; its worker may still
        # hold a live process pool whose atexit join would block the
        # interpreter, so flush and leave without running atexit.
        log.warning("service.exit_after_abandon", code=0)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
    return 0


def run() -> None:
    """Console-script shim mapping :class:`ReproError` to exit code 2."""
    try:
        sys.exit(main())
    except ReproError as exc:
        log.error(str(exc))
        sys.exit(2)


if __name__ == "__main__":
    run()
