"""repro.obs — zero-dependency observability for the simulation stack.

The package answers four questions about every run:

- **Where did the time go?** — :mod:`repro.obs.spans`: nestable
  wall+CPU tracing spans with a JSONL trace writer and an ASCII flame
  summary.
- **What did the components do?** — :mod:`repro.obs.metrics`:
  a registry of counters, gauges, and histograms whose snapshots are
  plain dicts, mergeable across ``multiprocessing`` workers with the
  same bit-identical discipline as the probe accumulators.
- **What produced this artifact?** — :mod:`repro.obs.manifest`: run
  provenance manifests (config hash, workload seed, code identity,
  per-phase timings, metric snapshot) validated by
  :mod:`repro.obs.validate`.
- **Which phase got slower, and on which host?** — per-phase
  attribution across traces by :mod:`repro.obs.trace_report`
  (``repro-trace-report``); :mod:`repro.obs.bench` names the
  measuring host and gives bootstrap CIs of medians.

Plus the shared plumbing: :mod:`repro.obs.jsonl` (the line-delimited
sink/reader), :mod:`repro.obs.log` (the structured, env-controlled
logger behind the CLIs), and :mod:`repro.obs.progress` (live per-shard
progress with ETA for parallel sweeps).

Design rule, enforced across the codebase: **instrumentation stays off
the hot path**. Nothing here is called per cache access; components
accumulate privately and publish once per phase (the fused engine at
finalize, workers at shard end). ``repro.obs`` imports nothing from
the rest of the package, so any module can depend on it.
"""

from repro.obs.bench import bootstrap_ci, environment_fingerprint
from repro.obs.jsonl import read_jsonl, write_jsonl
from repro.obs.log import StructuredLogger, log
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    describe_workload,
    git_sha,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.progress import ProgressReporter, progress_enabled
from repro.obs.spans import (
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "ProgressReporter",
    "RunManifest",
    "SpanRecord",
    "StructuredLogger",
    "Tracer",
    "bootstrap_ci",
    "config_hash",
    "describe_workload",
    "environment_fingerprint",
    "get_metrics",
    "get_tracer",
    "git_sha",
    "log",
    "progress_enabled",
    "read_jsonl",
    "set_metrics",
    "set_tracer",
    "span",
    "write_jsonl",
]
