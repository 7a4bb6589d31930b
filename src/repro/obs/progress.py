"""Live progress for parallel sweeps: per-task events with ETA on stderr.

:class:`ProgressReporter` turns *started*/*finished* events into human
lines on stderr::

    [sweep] shard 2/8 started   (point 64K-32, attempt 1)
    [sweep] shard 2/8 finished   (point 64K-32)  3/8 complete, elapsed 4.1s, ETA 6.9s

:class:`~repro.experiments.runner.ParallelSweepRunner` reports from the
resilient executor's submit and result callbacks, which run in the
parent process; workers never report. The reporter itself is
transport-agnostic — call :meth:`~ProgressReporter.started` and
:meth:`~ProgressReporter.finished` from anywhere.

Progress is **off by default** (tests and pipelines stay quiet):
enabled when the ``REPRO_PROGRESS`` environment variable is truthy or
the target stream is a TTY, overridable per reporter.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Optional, TextIO

#: Environment variable forcing progress on ("1") or off ("0").
ENV_VAR = "REPRO_PROGRESS"


def progress_enabled(stream: Optional[TextIO] = None) -> bool:
    """Default enablement: ``REPRO_PROGRESS`` wins, else TTY detection."""
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        return raw.strip().lower() not in ("", "0", "false", "no")
    stream = stream if stream is not None else sys.stderr
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty()) if callable(isatty) else False
    except (OSError, ValueError):  # pragma: no cover - closed stream
        return False


class ProgressReporter:
    """Formats shard lifecycle events, with a completion-rate ETA.

    Thread-safe, so several threads may report. All output goes to
    one stream (stderr by default), never stdout, so machine-readable
    CLI output stays clean.

    Args:
        total: Number of shards expected.
        label: Tag prefixed to every line (default ``"sweep"``).
        stream: Target stream; default ``sys.stderr``.
        enabled: Force on/off; default per :func:`progress_enabled`.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream: Optional[TextIO] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        self.total = total
        self.label = label
        self._stream = stream
        self.enabled = (
            progress_enabled(stream) if enabled is None else enabled
        )
        self.finished_count = 0
        self.started_count = 0
        self._t0 = time.monotonic()
        self._lock = threading.Lock()

    def _write(self, line: str) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        stream.write(line + "\n")
        flush = getattr(stream, "flush", None)
        if callable(flush):
            flush()

    def started(self, shard: int, detail: str = "") -> None:
        """Report shard ``shard`` (0-based) as started."""
        if not self.enabled:
            return
        with self._lock:
            self.started_count += 1
            suffix = f"   ({detail})" if detail else ""
            self._write(
                f"[{self.label}] shard {shard + 1}/{self.total} "
                f"started{suffix}"
            )

    def finished(self, shard: int, detail: str = "") -> None:
        """Report shard ``shard`` as finished, with progress and ETA.

        The ETA extrapolates from the mean completion rate so far —
        exact for uniform shards, a fair estimate otherwise.
        """
        if not self.enabled:
            return
        with self._lock:
            self.finished_count += 1
            done = self.finished_count
            elapsed = time.monotonic() - self._t0
            if done < self.total and done > 0:
                eta = elapsed * (self.total - done) / done
                tail = f", ETA {eta:.1f}s"
            else:
                tail = ", done"
            suffix = f"   ({detail})" if detail else ""
            self._write(
                f"[{self.label}] shard {shard + 1}/{self.total} finished"
                f"{suffix}  {done}/{self.total} complete, "
                f"elapsed {elapsed:.1f}s{tail}"
            )

    def __repr__(self) -> str:
        return (
            f"ProgressReporter(total={self.total}, "
            f"finished={self.finished_count}, enabled={self.enabled})"
        )
