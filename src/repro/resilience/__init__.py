"""repro.resilience — fault-tolerant sweep execution.

Sweeps are short: the whole paper at its own shape (23 segments of
350k references) builds in under two minutes, and the pipeline
benchmark's 24-point Table 4 sweep runs in about 1.1 s. Still, one
crashed worker must not throw away every completed point. This
package makes partial failure the normal, handled case:

- :mod:`repro.resilience.policy` — :class:`RetryPolicy` (the attempt
  budget and per-point timeouts), :class:`FailurePolicy`
  (``fail_fast`` / ``collect`` / ``retry_then_collect``), and the
  :class:`PointFailure` / :class:`SweepOutcome` result types;
- :mod:`repro.resilience.executor` — a process-pool executor that
  recovers from ``BrokenProcessPool``, reaps hung workers, re-queues
  only in-flight work, and runs each retry on the next free worker;
- :mod:`repro.resilience.checkpoint` — the crash-safe JSONL
  :class:`SweepCheckpoint` behind ``repro-sweep --resume``.

The test suite proves these guarantees on real pools with the fault
injectors of ``tests/faultkit.py`` (raise / hang / exit / corrupt in
a worker; crash / torn / enospc on the disk), installed through the
executor's ``fault_plan`` and :func:`repro.storage.io.set_io`. No
shipped tool injects faults.

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
