"""repro.resilience — fault-tolerant sweep execution.

The paper's headline numbers come from multi-hour parameter sweeps;
one crashed worker must not throw away every completed point. This
package makes partial failure the normal, handled case:

- :mod:`repro.resilience.policy` — :class:`RetryPolicy` (bounded
  retries, exponential backoff, deterministic jitter, per-point
  timeouts), :class:`FailurePolicy` (``fail_fast`` / ``collect`` /
  ``retry_then_collect``), and the :class:`PointFailure` /
  :class:`SweepOutcome` result types;
- :mod:`repro.resilience.executor` — a process-pool executor that
  recovers from ``BrokenProcessPool``, reaps hung workers, and
  re-queues only in-flight work;
- :mod:`repro.resilience.checkpoint` — the crash-safe JSONL
  :class:`SweepCheckpoint` behind ``repro-sweep --resume``;
- :mod:`repro.resilience.faults` — deterministic fault injectors
  (raise / hang / exit / corrupt) with which the test suite proves
  the guarantees.

See ``docs/resilience.md`` for the full story.
"""

from repro.resilience.checkpoint import SweepCheckpoint, point_signature
from repro.resilience.executor import ExecutionReport, ResilientPoolExecutor
from repro.resilience.policy import (
    FailurePolicy,
    PointFailure,
    RetryPolicy,
    SweepOutcome,
)

__all__ = [
    "ExecutionReport",
    "FailurePolicy",
    "PointFailure",
    "ResilientPoolExecutor",
    "RetryPolicy",
    "SweepCheckpoint",
    "SweepOutcome",
    "point_signature",
]
