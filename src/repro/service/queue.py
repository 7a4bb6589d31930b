"""Bounded job queue with backpressure, watermarks, and load shedding.

The simulation service must degrade *predictably* under overload: a
burst of submissions beyond what the worker pool can absorb is turned
away at the door with an honest retry hint, never buffered without
bound until the process OOMs. :class:`BoundedJobQueue` enforces three
admission regimes:

- **normal** — depth below the high watermark: every offer is
  accepted;
- **shedding** — depth reached the high watermark: offers are
  rejected with :class:`~repro.errors.QueueFullError` until the
  workers drain the queue below the *low* watermark (hysteresis, so
  admission does not flap at the boundary);
- **full** — depth at hard capacity: always rejected (capacity is an
  invariant, not a heuristic).

``close()`` flips the queue into drain mode — every subsequent offer
is rejected and, once the backlog is consumed, :meth:`take` returns
``None`` to wake blocked workers — the first step of the service's
graceful shutdown.

Every transition is counted in the ``service.queue.*`` metrics
(depth/accepted/rejected/shed_transitions), so an operator can see
backpressure happening, not just its symptoms.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Optional

from repro.errors import ConfigurationError, QueueFullError
from repro.obs.log import log
from repro.obs.metrics import MetricsRegistry, get_metrics


class BoundedJobQueue:
    """A thread-safe FIFO with hard capacity and watermark hysteresis.

    Args:
        capacity: Hard bound on queued jobs (>= 1).
        high_watermark: Depth at which load shedding starts; defaults
            to ``capacity``. Must satisfy
            ``low_watermark <= high_watermark <= capacity``.
        low_watermark: Depth the queue must drain to before admission
            resumes; defaults to ``high_watermark - 1`` (classic
            one-slot hysteresis) floored at 0.
        retry_after: Base seconds clients are told to wait before
            retrying a rejected offer (the HTTP ``Retry-After`` hint).
        metrics: Registry for ``service.queue.*`` instruments;
            defaults to the process-global registry.
    """

    def __init__(
        self,
        capacity: int,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        retry_after: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        self.capacity = capacity
        self.high_watermark = (
            capacity if high_watermark is None else high_watermark
        )
        self.low_watermark = (
            max(0, self.high_watermark - 1)
            if low_watermark is None
            else low_watermark
        )
        if not 0 <= self.low_watermark <= self.high_watermark <= capacity:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= low <= high <= capacity, got "
                f"low={self.low_watermark}, high={self.high_watermark}, "
                f"capacity={capacity}"
            )
        self.retry_after = retry_after
        self.metrics = metrics if metrics is not None else get_metrics()
        self._items: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._shedding = False
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def depth(self) -> int:
        """Current number of queued jobs."""
        return len(self)

    @property
    def shedding(self) -> bool:
        """Whether the queue is currently rejecting offers (hysteresis)."""
        with self._lock:
            return self._shedding

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (drain mode)."""
        with self._lock:
            return self._closed

    def offer(self, job: Any) -> None:
        """Enqueue ``job`` or raise :class:`~repro.errors.QueueFullError`.

        Rejection reasons, in precedence order: the queue is closed
        (draining), the queue is at hard capacity, or the queue is in
        the shedding regime (depth reached the high watermark and has
        not yet drained below the low watermark).
        """
        with self._lock:
            if self._closed:
                raise QueueFullError(
                    "service is draining; no new jobs are admitted",
                    retry_after=self.retry_after,
                )
            depth = len(self._items)
            if depth >= self.capacity or self._shedding:
                self.metrics.counter("service.queue.rejected").inc()
                raise QueueFullError(
                    f"job queue saturated (depth {depth}/{self.capacity}); "
                    f"retry in {self.retry_after:g}s",
                    retry_after=self.retry_after,
                )
            self._items.append(job)
            depth += 1
            if depth >= self.high_watermark and not self._shedding:
                self._shedding = True
                self.metrics.counter("service.queue.shed_transitions").inc()
                log.warning(
                    "service.queue.shedding_on",
                    depth=depth,
                    high_watermark=self.high_watermark,
                )
            self.metrics.counter("service.queue.accepted").inc()
            self.metrics.gauge("service.queue.depth").set(depth)
            self._not_empty.notify()

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Dequeue the oldest job, blocking up to ``timeout`` seconds.

        Returns ``None`` when the wait times out, or — once the queue
        is closed — when the backlog is empty (the worker's signal to
        exit its loop).
        """
        with self._not_empty:
            if not self._items and not self._closed:
                self._not_empty.wait(timeout)
            if not self._items:
                return None
            job = self._items.popleft()
            depth = len(self._items)
            if self._shedding and depth <= self.low_watermark:
                self._shedding = False
                log.info(
                    "service.queue.shedding_off",
                    depth=depth,
                    low_watermark=self.low_watermark,
                )
            self.metrics.gauge("service.queue.depth").set(depth)
            return job

    def requeue(self, job: Any) -> None:
        """Return an already-admitted job to the *front* of the queue.

        Used by workers that took a job but cannot run it yet (e.g.
        the execution breaker is open): the job was admitted once, so
        it bypasses the shedding and capacity checks — accepted work
        is never dropped — and keeps its place at the head of the
        line.
        """
        with self._lock:
            self._items.appendleft(job)
            self.metrics.gauge("service.queue.depth").set(len(self._items))
            self._not_empty.notify()

    def close(self) -> None:
        """Stop admitting jobs and wake every blocked :meth:`take`.

        Jobs already queued remain takeable; the queue never discards
        accepted work (that is what drain means).
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def snapshot(self) -> dict:
        """Plain-dict state for ``/metrics`` and status endpoints."""
        with self._lock:
            return {
                "depth": len(self._items),
                "capacity": self.capacity,
                "high_watermark": self.high_watermark,
                "low_watermark": self.low_watermark,
                "shedding": self._shedding,
                "closed": self._closed,
            }

    def __repr__(self) -> str:
        return (
            f"BoundedJobQueue(depth={len(self)}, capacity={self.capacity}, "
            f"shedding={self.shedding})"
        )
