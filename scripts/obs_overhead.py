#!/usr/bin/env python
"""Observability-overhead smoke gate for the sweep instrumentation.

The contract is that the tracing layer is effectively free: a replay
wrapped in the sweep path's instrumentation — an ambient
:class:`~repro.obs.context.TraceContext`, the span nest a sweep records
around each point (``sweep`` / ``pool_task`` / ``l2_replay``), and
three histogram observations — must replay the benchmark workload at
no less than ``(1 - max_regression)`` of the bare throughput.

Both configurations replay the same L1-filtered miss stream through
an uninstrumented L2 (the *cheapest* replay, so the overhead fraction
is measured at its largest). The repetitions are **interleaved** —
each round times one bare and one instrumented replay back to back —
so machine-load drift hits both medians equally instead of biasing
whichever configuration ran second. Exit code 0 means the gate held;
1 means the instrumented median throughput regressed past the
allowance.

Usage::

    PYTHONPATH=src python scripts/obs_overhead.py [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from pathlib import Path

from repro.cache.hierarchy import cached_miss_stream, replay_miss_stream
from repro.cache.set_associative import SetAssociativeCache
from repro.obs.context import activate, new_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.trace.synthetic import AtumWorkload

L1_CAPACITY = 4096
L1_BLOCK = 16
L2_CAPACITY = 64 * 1024
L2_BLOCK = 32
ASSOCIATIVITY = 4


def bare_replay(stream):
    """One cold replay through a plain, uninstrumented L2."""
    cache = SetAssociativeCache(L2_CAPACITY, L2_BLOCK, ASSOCIATIVITY)
    replay_miss_stream(stream, cache)
    return cache


def instrumented_replay(stream, tracer, metrics):
    """The same replay under the sweep path's per-point instrumentation.

    A fresh trace context activated for the duration, the
    ``sweep``/``pool_task``/``l2_replay`` span nest, and three
    histogram observations of the point's wait and elapsed time.
    """
    started = time.perf_counter()
    with activate(new_trace()):
        with tracer.span("sweep"):
            with tracer.span("pool_task", attempt=1):
                with tracer.span("l2_replay"):
                    cache = bare_replay(stream)
    elapsed = time.perf_counter() - started
    metrics.histogram("sweep.queue_wait_seconds").observe(0.0)
    metrics.histogram("sweep.execute_seconds").observe(elapsed)
    metrics.histogram("sweep.point_seconds").observe(elapsed)
    return cache


def _timed(fn) -> float:
    """Wall seconds of one call, with the GC held off the clock.

    The replay allocates thousands of cache lines per call, so a
    generational collection lands inside whichever sample happens to
    cross the threshold — a ~0.1 ms pause that dwarfs the ~30 µs
    instrumentation cost under measurement. Collecting before and
    disabling during the call keeps the gate measuring the
    instrumentation, not the collector's scheduling.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    finally:
        gc.enable()


def main(argv=None) -> int:
    """Time bare vs instrumented replay; gate the throughput ratio."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--references", type=int, default=20_000,
        help="workload references per segment (default: %(default)s)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=7,
        help="timed repetitions per configuration (default: %(default)s)",
    )
    parser.add_argument(
        "--warmup", type=int, default=2,
        help="untimed warmup rounds per configuration (default: %(default)s)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.05,
        help="largest tolerated fractional throughput loss "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable verdict to PATH",
    )
    args = parser.parse_args(argv)

    workload = AtumWorkload(
        segments=1, references_per_segment=args.references, seed=21
    )
    stream, _ = cached_miss_stream(workload, L1_CAPACITY, L1_BLOCK)
    requests = len(stream)
    tracer = Tracer()
    metrics = MetricsRegistry()

    for _ in range(args.warmup):
        bare_replay(stream)
        instrumented_replay(stream, tracer, metrics)
    bare_samples = []
    instrumented_samples = []
    for _ in range(args.repetitions):
        bare_samples.append(_timed(lambda: bare_replay(stream)))
        instrumented_samples.append(
            _timed(lambda: instrumented_replay(stream, tracer, metrics))
        )

    bare_median = statistics.median(bare_samples)
    instrumented_median = statistics.median(instrumented_samples)
    bare_rps = requests / bare_median
    instrumented_rps = requests / instrumented_median
    regression = 1.0 - instrumented_rps / bare_rps
    ok = regression <= args.max_regression
    verdict = {
        "requests": requests,
        "repetitions": args.repetitions,
        "bare_seconds": bare_samples,
        "instrumented_seconds": instrumented_samples,
        "bare_median_seconds": bare_median,
        "instrumented_median_seconds": instrumented_median,
        "bare_requests_per_second": bare_rps,
        "instrumented_requests_per_second": instrumented_rps,
        "throughput_regression": regression,
        "max_regression": args.max_regression,
        "spans_recorded": len(tracer.records),
        "ok": ok,
    }
    print(
        f"bare:         {bare_median * 1e3:8.2f} ms median  "
        f"{bare_rps:12.0f} req/s"
    )
    print(
        f"instrumented: {instrumented_median * 1e3:8.2f} ms median  "
        f"{instrumented_rps:12.0f} req/s"
    )
    print(
        f"throughput regression {regression * 100:+.2f}% "
        f"(allowed {args.max_regression * 100:.1f}%): "
        f"{'OK' if ok else 'FAIL'}"
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(verdict, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
