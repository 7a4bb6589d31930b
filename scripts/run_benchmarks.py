#!/usr/bin/env python
"""Machine-readable simulator throughput benchmark with a trajectory.

Times the L2 replay benchmark workload (the same stream
``benchmarks/bench_simulator_speed.py`` uses) through the three
instrumentation configurations — bare, fused engine, and legacy
observers — with the statistical harness from :mod:`repro.obs.bench`
(warmup, N repeats, median/MAD, bootstrap confidence intervals)
instead of best-of-N wall clock.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py [-o BENCH_simulator.json]

The output file is an **append-only history**: each run adds one
self-describing entry (config + ``config_hash``, git SHA, environment
fingerprint, per-configuration timing statistics, deterministic
per-scheme probe-count totals, and the fused-over-legacy speedup) to
``{"schema_version", "benchmark", "entries": [...]}``. Re-running an
identical config at an identical commit replaces its stale entry
instead of padding the trajectory; a legacy single-run file is
migrated into the first entry rather than clobbered. Gate the newest
entry with ``repro-bench-compare``; the full manifest + JSONL span
trace land next to the output (``<output>.manifest.json`` /
``<output>.trace.jsonl``) for ``repro-trace-report``.
"""

from __future__ import annotations

import argparse
import platform
from pathlib import Path

from repro.cache.hierarchy import cached_miss_stream, replay_miss_stream
from repro.cache.observers import ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.core.engine import FusedProbeEngine
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.obs.bench import BenchHistory, build_entry, measure
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

from repro.trace.synthetic import AtumWorkload

L1_CAPACITY = 4096
L1_BLOCK = 16
L2_CAPACITY = 64 * 1024
L2_BLOCK = 32
ASSOCIATIVITY = 4


def bare_cache():
    """A plain, uninstrumented L2."""
    return SetAssociativeCache(L2_CAPACITY, L2_BLOCK, ASSOCIATIVITY)


def fused_cache():
    """An L2 instrumented through the fused probe engine."""
    cache = bare_cache()
    engine = FusedProbeEngine(ASSOCIATIVITY)
    engine.add_scheme(NaiveLookup(ASSOCIATIVITY), label="naive")
    engine.add_scheme(MRULookup(ASSOCIATIVITY), label="mru")
    engine.add_scheme(
        PartialCompareLookup(ASSOCIATIVITY, tag_bits=16), label="partial"
    )
    cache.attach_engine(engine)
    return cache


def legacy_cache():
    """An L2 instrumented through the per-observer reference path."""
    cache = bare_cache()
    cache.attach_all(
        [
            ProbeObserver(NaiveLookup(ASSOCIATIVITY)),
            ProbeObserver(MRULookup(ASSOCIATIVITY)),
            ProbeObserver(PartialCompareLookup(ASSOCIATIVITY, tag_bits=16)),
        ]
    )
    return cache


def replay_once(stream, make_cache):
    """One full replay from cold state; returns the finalized cache."""
    cache = make_cache()
    replay_miss_stream(stream, cache)
    if cache.engine is not None:
        cache.engine.finalize()
    return cache


def probe_count_totals(cache) -> dict:
    """Deterministic per-scheme probe totals of a fused-engine cache.

    These are exact integer functions of the replayed stream — the
    invariant ``repro-bench-compare`` checks bit-identically across
    runs of the same config.
    """
    totals = {}
    for label, channel in cache.engine.channels.items():
        accumulator = channel.accumulator
        totals[label] = {
            "hit_accesses": accumulator.hit_accesses,
            "hit_probes": accumulator.hit_probes,
            "miss_accesses": accumulator.miss_accesses,
            "miss_probes": accumulator.miss_probes,
            "writeback_accesses": accumulator.writeback_accesses,
            "writeback_probes": accumulator.writeback_probes,
        }
    return totals


def main(argv=None) -> int:
    """Run the benchmark and append one entry to the history file."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_simulator.json",
        help="benchmark history JSON path, appended to (default: %(default)s)",
    )
    parser.add_argument(
        "--references", type=int, default=30_000,
        help="workload references per segment (default: %(default)s)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=7,
        help="timed repetitions per configuration (default: %(default)s)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1,
        help="untimed warmup rounds per configuration (default: %(default)s)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="start a new history instead of appending to an existing one",
    )
    args = parser.parse_args(argv)

    workload = AtumWorkload(
        segments=1, references_per_segment=args.references, seed=21
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    config = {
        "references_per_segment": args.references,
        "repetitions": args.repetitions,
        "warmup": args.warmup,
        "seed": 21,
        "l1": f"{L1_CAPACITY}B/{L1_BLOCK}B",
        "l2": f"{L2_CAPACITY}B/{L2_BLOCK}B/a{ASSOCIATIVITY}",
    }
    with tracer.span("l1_capture"):
        stream, _ = cached_miss_stream(workload, L1_CAPACITY, L1_BLOCK)
    requests = len(stream)

    configurations = {
        "l2_replay_bare": bare_cache,
        "l2_replay_fused_engine": fused_cache,
        "l2_replay_legacy_observers": legacy_cache,
    }
    results = {}
    probe_counts = {}
    for name, make_cache in configurations.items():
        with tracer.span(
            name, repetitions=args.repetitions, warmup=args.warmup
        ):
            timing = measure(
                lambda mc=make_cache: replay_once(stream, mc),
                repeats=args.repetitions,
                warmup=args.warmup,
            )
        span_record = tracer.records[-1]
        metrics.histogram("bench.median_seconds").observe(timing.median)
        results[name] = {
            "timing": timing.to_dict(),
            "requests": requests,
            "requests_per_second": requests / timing.median,
            "phase_wall_seconds": span_record.wall_seconds,
            "phase_cpu_seconds": span_record.cpu_seconds,
        }
        if name == "l2_replay_fused_engine":
            probe_counts = probe_count_totals(timing.last_result)
        print(
            f"{name:30s} {timing.median * 1e3:8.2f} ms  "
            f"±{timing.mad * 1e3:6.2f} (MAD)  "
            f"CI [{timing.ci_low * 1e3:7.2f}, {timing.ci_high * 1e3:7.2f}]  "
            f"{requests / timing.median:12.0f} req/s"
        )

    fused = results["l2_replay_fused_engine"]["timing"]["median_seconds"]
    legacy = results["l2_replay_legacy_observers"]["timing"]["median_seconds"]
    summary = {
        "fused_speedup_over_legacy": legacy / fused,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    print(f"fused engine speedup over legacy observers: {legacy / fused:.2f}x")

    output = Path(args.output)
    manifest = RunManifest.build(
        tool="run_benchmarks",
        config=config,
        workload=workload,
        tracer=tracer,
        metrics=metrics,
        extra={"results_file": output.name},
    )
    entry = build_entry(
        config=config,
        config_hash=manifest.config_hash,
        results=results,
        probe_counts=probe_counts,
        workload={
            "segments": 1,
            "references_per_segment": args.references,
            "seed": 21,
            "l1": f"{L1_CAPACITY}B/{L1_BLOCK}B",
            "l2": f"{L2_CAPACITY}B/{L2_BLOCK}B/a{ASSOCIATIVITY}",
            "l2_requests": requests,
        },
        summary=summary,
    )
    history = (
        BenchHistory() if args.fresh else BenchHistory.load_or_create(output)
    )
    replaced = history.append(entry)
    history.save(output)
    manifest_path = manifest.write(output.with_suffix(".manifest.json"))
    trace_path = output.with_suffix(".trace.jsonl")
    tracer.write_jsonl(trace_path)
    verb = "replaced entry in" if replaced else "appended entry to"
    print(f"{verb} {output} ({len(history)} total)")
    print(f"wrote {manifest_path} and {trace_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
