"""``repro-cluster``: the sharded front door over N ``repro-serve`` workers.

Spawns ``--shards`` worker processes (each a full ``repro-serve`` on a
loopback port of the OS's choosing), supervises them, and serves the
aggregated cluster API::

    repro-cluster --shards 3 --port 8320 --cluster-dir /tmp/cluster
    repro-cluster --shards 4 --queue-size 8 --retry-jitter 0.5

Submissions route by consistent hashing on the job's ``config_hash``,
so a given sweep configuration always lands on the same shard and its
checkpoint; ``/metrics``, ``/jobs``, and ``/dashboard{,.txt,.json}``
aggregate every shard (quantile histograms merge bit-identically);
``/shards`` shows the supervisor's per-shard lifecycle view. Dead
shards are ejected, their in-flight jobs re-admitted onto the ring
successor (which resumes the shared checkpoint), and the process is
restarted with jittered exponential backoff.

Shutdown is the two-phase cluster drain: the first SIGTERM/SIGINT
stops admission and fans SIGTERM out to every shard — each runs its
own drain, flushing checkpoints — then waits ``--drain-grace``
seconds before killing stragglers. A second signal hard-exits 130.

Exit codes: 0 — clean drain; 1 — drain killed a straggler; 130 —
second-signal hard exit; 2 — bad usage or startup failure.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

from repro.errors import ReproError
from repro.obs.log import log
from repro.service.cluster import ClusterHTTPServer, ClusterService
from repro.service.drain import DrainCoordinator
from repro.service.shard import ShardProcess


def shard_args(args) -> List[str]:
    """The ``repro-serve`` CLI arguments every shard is started with."""
    forwarded = [
        "--queue-size", str(args.queue_size),
        "--workers", str(args.workers),
        "--retry-jitter", str(args.retry_jitter),
        "--seed", str(args.seed),
        "--drain-grace", str(args.drain_grace),
        "--bench-history", args.bench_history,
    ]
    if args.scale is not None:
        forwarded += ["--scale", str(args.scale)]
    if args.processes is not None:
        forwarded += ["--processes", str(args.processes)]
    if args.max_probes is not None:
        forwarded += ["--max-probes", str(args.max_probes)]
    if args.stream_artifacts is not None:
        forwarded += ["--stream-artifacts", args.stream_artifacts]
    return forwarded


def build_cluster(args) -> ClusterService:
    """Construct the supervisor + its shard processes from CLI args."""
    spool_dir = args.spool_dir or f"{args.cluster_dir}/spool"
    shards = [
        ShardProcess(
            f"shard-{index}",
            cluster_dir=args.cluster_dir,
            spool_dir=spool_dir,
            args=shard_args(args),
        )
        for index in range(args.shards)
    ]
    return ClusterService(
        shards,
        cluster_dir=args.cluster_dir,
        probe_interval=args.probe_interval,
        failure_threshold=args.failure_threshold,
        breaker_reset=args.breaker_reset,
        restart=not args.no_restart,
        restart_backoff=args.restart_backoff,
        jitter_seed=args.jitter_seed,
        bench_history_path=args.bench_history,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: supervise until drained; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Front-door router over N repro-serve shards: "
        "consistent-hash placement, failover re-admission, aggregated "
        "metrics, two-phase cluster drain.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8320, help="0 picks a free port"
    )
    parser.add_argument(
        "--shards", type=int, default=3, help="worker process count"
    )
    parser.add_argument(
        "--cluster-dir",
        default="repro-cluster",
        help="directory for shard port/log files and the cluster manifest",
    )
    parser.add_argument(
        "--spool-dir",
        default=None,
        help="shared checkpoint spool for every shard "
        "(default: CLUSTER_DIR/spool); sharing it is what makes "
        "failover resume instead of recompute",
    )
    parser.add_argument(
        "--probe-interval",
        type=float,
        default=0.25,
        help="seconds between shard health-probe sweeps",
    )
    parser.add_argument(
        "--failure-threshold",
        type=int,
        default=2,
        help="consecutive probe failures that eject a shard",
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=2.0,
        help="seconds an ejected shard waits before its half-open rejoin",
    )
    parser.add_argument(
        "--no-restart",
        action="store_true",
        help="do not restart dead shard processes",
    )
    parser.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        help="base seconds of the jittered exponential restart backoff",
    )
    parser.add_argument(
        "--jitter-seed",
        type=int,
        default=1989,
        help="seed for the restart-jitter PRNG",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds to wait for shard drains before killing stragglers",
    )
    # Shard passthrough knobs.
    parser.add_argument("--queue-size", type=int, default=16)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--processes", type=int, default=None)
    parser.add_argument("--retry-jitter", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--max-probes", type=int, default=None)
    parser.add_argument("--stream-artifacts", metavar="DIR", default=None)
    parser.add_argument(
        "--bench-history",
        metavar="FILE",
        default="BENCH_simulator.json",
        help="benchmark trajectory history shown on /dashboard",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    cluster = build_cluster(args)
    coordinator = DrainCoordinator()
    coordinator.install()
    cluster.start()
    server = ClusterHTTPServer(cluster, args.host, args.port)
    host, port = server.address
    log.info(
        f"repro-cluster front door on http://{host}:{port} "
        f"({args.shards} shards)"
    )
    http_thread = threading.Thread(
        target=server.serve_forever, name="repro-cluster-http", daemon=True
    )
    http_thread.start()
    try:
        coordinator.wait()
        server.shutdown()
        server.server_close()
        clean = cluster.drain(grace=args.drain_grace)
    finally:
        coordinator.uninstall()
    return 0 if clean else 1


def run() -> None:
    """Console-script shim mapping :class:`ReproError` to exit code 2."""
    try:
        sys.exit(main())
    except ReproError as exc:
        log.error(str(exc))
        sys.exit(2)


if __name__ == "__main__":
    run()
