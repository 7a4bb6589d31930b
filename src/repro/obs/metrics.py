"""Metrics registry: counters, gauges, and histograms, mergeable.

The publishing discipline mirrors the fused engine's accounting: hot
loops touch nothing here; components accumulate privately and publish
*once per phase* (the engine at finalize, a worker at task end). A
registry snapshot is a plain nested dict — picklable, JSON-able — so
worker processes return snapshots alongside their results and the
parent merges them with :meth:`MetricsRegistry.merge_snapshot`:

- counters add,
- gauges keep the last written value,
- histograms combine count/total/min/max,
- quantile histograms add their integer bucket counts.

Deterministic counters (e.g. ``engine.accesses``) therefore merge to
*bit-identical* totals regardless of sharding — the same discipline the
probe differential tests enforce — while timing histograms (e.g.
``miss_stream.capture_seconds``) merge to a faithful distribution.

Metric namespaces, by producing layer:

- ``engine.*`` / ``runner.*`` — simulation and sweep execution;
- ``resilience.*`` — the fault-tolerant executor (retries, pool
  restarts, timeouts) and the service's circuit breakers
  (``resilience.breaker.<name>.{state,opened,failures,successes,
  rejected}``, where the ``state`` gauge encodes closed=0,
  half_open=1, open=2);
- ``service.*`` — the ``repro-serve`` daemon: ``service.queue.{depth,
  accepted,rejected,shed_transitions}``, ``service.admission.
  {accepted,rejected}``, ``service.jobs.{done,partial,failed}``, and
  ``service.watchdog.{busy_workers,stalls}``;
- ``latency.*`` — the daemon's per-job latency quantile histograms:
  ``latency.{admission,queue_wait,execute,job}_seconds``, each a
  :class:`QuantileHistogram` surfaced as p50/p95/p99/p999 in
  ``/metrics`` and the dashboards.

The daemon also traces one ``service_job`` span per executed job, so
its drain manifest carries a per-job phase breakdown exactly like a
batch run's.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (merges by addition)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1); negative amounts are rejected."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter(value={self.value})"


class Gauge:
    """A point-in-time value (merges by last-write-wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current value."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge(value={self.value})"


class Histogram:
    """A streaming summary of observed values: count/total/min/max.

    Deliberately bucket-free: the consumers here need totals and
    extremes (mean is ``total / count``), and four scalars merge
    exactly across any sharding.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average of the observations so far (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used in snapshots."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a snapshot dict of another histogram into this one.

        Tolerates sparse/legacy dicts: missing ``count``/``total``
        merge as zero and missing or ``None`` ``min``/``max`` leave
        this side's extremes alone, so a snapshot from an older worker
        (or an empty one) merges as a no-op rather than a ``KeyError``.
        """
        self.count += data.get("count", 0)
        self.total += data.get("total", 0.0)
        for key, better in (("min", min), ("max", max)):
            other = data.get(key)
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else better(mine, other))

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, total={self.total})"


#: Quantiles the service and dashboards report, in render order.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999),
)


class QuantileHistogram:
    """A mergeable quantile sketch over fixed log-spaced buckets.

    Values land in bucket ``floor(log2(value) * RESOLUTION)`` — with
    ``RESOLUTION`` buckets per power of two, bucket boundaries grow by
    ``2 ** (1/RESOLUTION)`` (~19%), so any quantile estimate is off by
    at most one bucket's relative width. Bucket *counts* are exact
    integers, so merging worker snapshots is bit-identical addition in
    any order — the same discipline as the rest of the registry —
    unlike sampling sketches whose merges depend on ordering.

    :meth:`quantile` returns the **upper bound** of the bucket holding
    the requested rank (a conservative, tail-honest estimate), clipped
    to the exact observed ``[min, max]``. Non-positive observations
    (no log bucket) are counted separately and sort below every
    bucket.
    """

    #: Buckets per power of two; boundaries grow by ``2 ** (1/4)``.
    RESOLUTION = 4

    __slots__ = ("count", "total", "min", "max", "zero_count", "buckets")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero_count: int = 0
        self.buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            self.zero_count += 1
            return
        index = math.floor(math.log2(value) * self.RESOLUTION)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Average of the observations so far (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @staticmethod
    def bucket_upper_bound(index: int) -> float:
        """The exclusive upper value boundary of bucket ``index``."""
        return 2.0 ** ((index + 1) / QuantileHistogram.RESOLUTION)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) of the stream.

        Walks the buckets to the observation of rank ``ceil(q*count)``
        and returns that bucket's upper bound, clipped to the observed
        ``[min, max]`` — exact at the extremes, within one bucket's
        relative width everywhere else. Returns 0.0 when empty.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.zero_count
        if rank <= cumulative:
            # Non-positive observations sort first; min covers them.
            return self.min if self.min is not None else 0.0
        estimate = None
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                estimate = self.bucket_upper_bound(index)
                break
        if estimate is None:  # rank beyond recorded counts (merge skew)
            estimate = self.max if self.max is not None else 0.0
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def summary(self) -> Dict[str, Any]:
        """``{"count", "mean", "p50", "p95", "p99", "p999"}`` for display."""
        result: Dict[str, Any] = {"count": self.count, "mean": self.mean}
        for label, q in SUMMARY_QUANTILES:
            result[label] = self.quantile(q) if self.count else 0.0
        return result

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used in snapshots.

        Bucket keys are stringified indices so the dict survives JSON
        round-trips unchanged.
        """
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "zero_count": self.zero_count,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a snapshot dict of another quantile histogram in.

        Integer bucket counts add, so merging N worker snapshots in
        any order yields bit-identical buckets (and therefore
        identical quantile estimates) to one unsharded stream.
        Tolerates sparse dicts the same way :class:`Histogram` does.
        """
        self.count += data.get("count", 0)
        self.total += data.get("total", 0.0)
        for key, better in (("min", min), ("max", max)):
            other = data.get(key)
            if other is None:
                continue
            mine = getattr(self, key)
            setattr(self, key, other if mine is None else better(mine, other))
        self.zero_count += data.get("zero_count", 0)
        for raw_index, bucket_count in (data.get("buckets") or {}).items():
            index = int(raw_index)
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    def __repr__(self) -> str:
        return (
            f"QuantileHistogram(count={self.count}, "
            f"buckets={len(self.buckets)})"
        )


class MetricsRegistry:
    """Named counters, gauges, and histograms for one process/phase.

    Instruments are created on first use (``registry.counter("x")``),
    so publishers never pre-register. Names are conventionally
    dotted component paths: ``engine.accesses``,
    ``miss_stream.cache_hits``, ``miss_stream.capture_seconds``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._quantile_histograms: Dict[str, QuantileHistogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def quantile_histogram(self, name: str) -> QuantileHistogram:
        """The quantile histogram under ``name`` (created on first use)."""
        instrument = self._quantile_histograms.get(name)
        if instrument is None:
            instrument = self._quantile_histograms[name] = QuantileHistogram()
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every instrument — picklable and JSON-able.

        Shape::

            {"counters":   {name: value},
             "gauges":     {name: value},
             "histograms": {name: {"count", "total", "min", "max"}},
             "quantile_histograms":
                 {name: {"count", "total", "min", "max",
                         "zero_count", "buckets"}}}
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
            "quantile_histograms": {
                n: h.to_dict()
                for n, h in sorted(self._quantile_histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters add, gauges take the snapshot's value, histograms
        combine — so merging N shard snapshots in any order yields the
        same counters as one unsharded run.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_dict(data)
        for name, data in snapshot.get("quantile_histograms", {}).items():
            self.quantile_histogram(name).merge_dict(data)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (via its snapshot)."""
        self.merge_snapshot(other.snapshot())

    def clear(self) -> None:
        """Drop every instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._quantile_histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)}, "
            f"quantile_histograms={len(self._quantile_histograms)})"
        )


#: The process-global registry default publishers write into.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Intended for tests and embedders that need isolated metrics.
    """
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
