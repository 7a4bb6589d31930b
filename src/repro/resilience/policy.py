"""Execution policies for fault-tolerant sweeps.

A sweep treats partial failure as the normal case: a crashed worker,
a hung replay, or one malformed point must not throw away the points
already completed. This module holds the *decisions* — how often to
try a point, how long one attempt may run, what to do when a point
still fails — kept separate from the *mechanism*
(:mod:`repro.resilience.executor`):

- :class:`FailurePolicy` — what a sweep does when a point fails:
  raise immediately, collect and continue, or retry then collect;
- :class:`RetryPolicy` — the attempt budget per point and an optional
  per-point wall-clock timeout;
- :class:`PointFailure` — the structured record of one failed point
  (exception class, traceback text, attempt count, worker pid) that
  flows into :class:`SweepOutcome`, the run manifest, and
  :class:`~repro.errors.SweepPointError`;
- :class:`SweepOutcome` — completed results plus failure records, the
  return value of
  :meth:`~repro.experiments.runner.ParallelSweepRunner.run_points`.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, SweepPointError, SweepTimeoutError


class FailurePolicy(str, enum.Enum):
    """What a sweep does when a point fails in a worker.

    - ``FAIL_FAST`` — raise :class:`~repro.errors.SweepPointError` on
      the first failure; completed points are discarded unless a
      checkpoint is recording them.
    - ``COLLECT`` — record a :class:`PointFailure` and keep going; the
      sweep returns every completed result plus the failure records.
    - ``RETRY_THEN_COLLECT`` — retry each failed point per the
      :class:`RetryPolicy`, then collect whatever still fails.
    """

    FAIL_FAST = "fail_fast"
    COLLECT = "collect"
    RETRY_THEN_COLLECT = "retry_then_collect"

    @classmethod
    def coerce(cls, value: "FailurePolicy | str") -> "FailurePolicy":
        """Accept an enum member or its string value (CLI-friendly)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ConfigurationError(
                f"unknown failure policy {value!r}; choose from "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class RetryPolicy:
    """The attempt budget and the per-point timeout.

    A failed attempt goes back on the executor's queue and runs on the
    next free worker, with no delay: a point is a deterministic replay,
    so a raise recurs however long the wait, and the victims of a crash
    or a timeout need a new worker, not a pause.

    Args:
        max_attempts: Total attempts per point (1 = no retries).
        timeout: Per-point wall-clock budget in seconds, enforced by
            killing and re-creating the worker pool (``None`` = none).
    """

    max_attempts: int = 3
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate ranges at construction time."""
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")


#: Failure kinds a :class:`PointFailure` can record.
FAILURE_KINDS = ("raise", "timeout", "crash")


@dataclass
class PointFailure:
    """Structured record of one sweep point that ultimately failed.

    Args:
        key: The executor's task key (the point's index in the sweep).
        kind: One of :data:`FAILURE_KINDS` — an exception raised in the
            worker, a wall-clock timeout, or a worker-process death.
        error_type: Exception class name (e.g. ``"SimulationError"``).
        message: The exception message (or a synthesized one for
            timeouts and crashes).
        traceback: Worker-side traceback text when the process boundary
            allowed capturing one, else ``""``.
        attempts: How many attempts were charged before giving up.
        worker_pid: PID of the worker that raised, when known.
        point: The failing point's configuration as a plain dict.
        signature: The point's content signature (checkpoint key).
    """

    key: Any
    kind: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    worker_pid: Optional[int] = None
    point: Optional[Dict[str, Any]] = None
    signature: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for manifests and JSON output.

        Includes a human-readable ``error`` summary line for
        compatibility with the manifest's existing failure records.
        """
        data = asdict(self)
        data["error"] = (
            f"{self.kind}: point {self.key} failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )
        return data

    def to_exception(self) -> SweepPointError:
        """The matching exception, for ``fail_fast`` re-raising."""
        exc_class = (
            SweepTimeoutError if self.kind == "timeout" else SweepPointError
        )
        return exc_class(self.to_dict()["error"], failure=self)


@dataclass
class SweepOutcome:
    """Everything a resilient sweep produced, success or not.

    ``results`` preserves input order; entries are ``None`` exactly
    where ``failures`` has a record with that index as its ``key``.
    """

    results: List[Optional[Any]] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)
    #: Points restored from a checkpoint instead of re-run.
    resumed: int = 0
    #: Retries charged across all points.
    retries: int = 0
    #: Worker pools killed and re-created (crash or timeout recovery).
    pool_restarts: int = 0
    #: Per-point wall-clock timeouts that fired.
    timeouts: int = 0

    @property
    def ok(self) -> bool:
        """True when every point completed."""
        return not self.failures

    def completed(self) -> int:
        """Number of points that produced a result."""
        return sum(1 for result in self.results if result is not None)
