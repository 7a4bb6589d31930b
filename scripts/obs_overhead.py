#!/usr/bin/env python
"""Observability-overhead smoke gate for the sweep instrumentation.

The contract is that the tracing layer is effectively free: a replay
run as one sweep point — inside an ``l2_replay`` span, called through
the pool's real per-task wrapper
(:func:`repro.resilience.executor._guarded_call`: a fresh tracer and
a ``pool_task`` span, the ``SpanRecord`` objects shipped back as they
are), and adopted by the parent tracer under an open ``sweep`` span —
must replay the benchmark workload at no less than
``(1 - max_regression)`` of the bare throughput. Both arms run
in-process: the bare arm models no pool either, and in a real sweep
the span records ride the result pickle the pool makes anyway.

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
from repro.obs.spans import Tracer, span
from repro.resilience.executor import _guarded_call
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


def traced_replay(stream):
    """The sweep worker's share: the replay inside an ``l2_replay`` span."""
    with span("l2_replay"):
        return bare_replay(stream)


def instrumented_replay(stream, tracer):
    """The same replay as one sweep point, wrapper and adoption included."""
    with tracer.span("sweep"):
        tag, cache, spans = _guarded_call((traced_replay, 0, stream, 1))
        tracer.adopt(spans)
    if tag != "ok":
        raise RuntimeError(cache["traceback"])
    return cache


def _timed(fn) -> float:
    """Wall seconds of one call, with the GC held off the clock.

    The replay allocates thousands of cache lines per call, so a
    generational collection lands inside whichever sample happens to
    cross the threshold — a ~0.1 ms pause, as large as the
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
        "--repetitions", type=int, default=61,
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
    stream = cached_miss_stream(workload, L1_CAPACITY, L1_BLOCK)
    requests = len(stream)
    tracer = Tracer()

    for _ in range(args.warmup):
        bare_replay(stream)
        instrumented_replay(stream, tracer)
    bare_samples = []
    instrumented_samples = []
    for _ in range(args.repetitions):
        bare_samples.append(_timed(lambda: bare_replay(stream)))
        instrumented_samples.append(
            _timed(lambda: instrumented_replay(stream, tracer))
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
