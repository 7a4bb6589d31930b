"""Tracing spans: nestable wall+CPU timers with a JSONL trace format.

A *span* measures one named phase of work — an L1 capture, an L2
replay, a table build. Spans nest (a per-thread stack via
:mod:`contextvars`), are based on the monotonic clocks
(``time.perf_counter`` for wall time, ``time.process_time`` for CPU
time — both immune to system clock steps), and record their
attributes, depth, and full path through the enclosing spans.
Durations are *inclusive* of child spans.

Every record also carries **causal identity** from
:mod:`repro.obs.context`: a ``trace_id`` shared by all spans of one
request, its own ``span_id``, and the ``parent_span_id`` it nests
under — taken from the enclosing span, or from the ambient
:class:`~repro.obs.context.TraceContext` when the span is the first
of its thread (the cross-thread and cross-process re-parenting hook).
A top-level span with no ambient context roots a fresh trace of its
own, so every record is attributable.

Usage::

    from repro.obs import span, get_tracer

    with span("l2_replay", l2="256K-32", associativity=4):
        with span("finalize"):
            ...

    get_tracer().write_jsonl("trace.jsonl")   # one record per span
    print(get_tracer().flame())               # ASCII flame summary

A span that unwinds on an exception is still recorded, stamped with
``error=True`` and the exception type in its attributes.

Instrumentation discipline: spans wrap *phases*, never per-access
work. Nothing in this module is invoked from the simulator hot path.
"""

from __future__ import annotations

import contextvars
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.context import (
    TraceContext,
    current_context,
    new_id,
    reset_context,
    set_context,
)
from repro.obs.jsonl import write_jsonl


class SpanRecord:
    """One completed span: identity, position, and measured durations.

    Attributes:
        name: The phase name passed to :meth:`Tracer.span`.
        path: ``"/"``-joined names of the enclosing spans plus this one
            (e.g. ``"sweep/l2_replay"``) — the flame-graph key.
        depth: Nesting depth (0 for top-level spans).
        start: Wall-clock offset in seconds since the tracer was
            created (monotonic; comparable across records of one trace).
        wall_seconds: Elapsed wall time, inclusive of children.
        cpu_seconds: Elapsed process CPU time, inclusive of children.
        attrs: The keyword attributes the span was opened with, plus
            ``error``/``error_type`` when the span unwound on an
            exception.
        index: Completion order within the tracer (0-based).
        trace_id: Causal trace this span belongs to.
        span_id: This span's own identity within the trace.
        parent_span_id: The span this one nests under (``None`` for a
            trace root).
    """

    __slots__ = (
        "name", "path", "depth", "start",
        "wall_seconds", "cpu_seconds", "attrs", "index",
        "trace_id", "span_id", "parent_span_id",
    )

    def __init__(
        self,
        name: str,
        path: str,
        depth: int,
        start: float,
        wall_seconds: float,
        cpu_seconds: float,
        attrs: Dict[str, Any],
        index: int,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.path = path
        self.depth = depth
        self.start = start
        self.wall_seconds = wall_seconds
        self.cpu_seconds = cpu_seconds
        self.attrs = attrs
        self.index = index
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, as written to the JSONL trace."""
        return {
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "start": self.start,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "attrs": self.attrs,
            "index": self.index,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from its :meth:`to_dict` form.

        Tolerates legacy records without the causal-identity fields
        (they come back as ``None``) so pre-context traces still load.
        """
        return cls(
            name=data["name"],
            path=data["path"],
            depth=data["depth"],
            start=data["start"],
            wall_seconds=data["wall_seconds"],
            cpu_seconds=data["cpu_seconds"],
            attrs=dict(data.get("attrs") or {}),
            index=data.get("index", 0),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
            parent_span_id=data.get("parent_span_id"),
        )

    def __repr__(self) -> str:
        return (
            f"SpanRecord(path={self.path!r}, "
            f"wall_seconds={self.wall_seconds:.6f})"
        )


class _ActiveSpan:
    """Context manager for one in-flight span (created by ``Tracer.span``)."""

    __slots__ = (
        "_tracer", "name", "attrs", "_wall0", "_cpu0", "_path", "_depth",
        "trace_id", "span_id", "parent_span_id",
        "_stack_token", "_context_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        """Start the clocks, resolve causal identity, push the stack.

        The parent is the enclosing span of *this* context (thread);
        with no enclosing span, the ambient
        :class:`~repro.obs.context.TraceContext` — the hook through
        which a request's root span adopts worker threads — and with
        neither, the span roots a fresh trace.
        """
        tracer = self._tracer
        stack: Tuple["_ActiveSpan", ...] = tracer._stack_var.get() or ()
        self._depth = len(stack)
        parent = stack[-1] if stack else None
        self._path = f"{parent._path}/{self.name}" if parent else self.name
        self.span_id = new_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            ambient = current_context()
            if ambient is not None:
                self.trace_id = ambient.trace_id
                self.parent_span_id = ambient.span_id
            else:
                self.trace_id = new_id()
                self.parent_span_id = None
        self._stack_token = tracer._stack_var.set(stack + (self,))
        self._context_token = set_context(
            TraceContext(self.trace_id, self.span_id, self.parent_span_id)
        )
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the clocks, pop the stack, and record the span.

        A span unwinding on an exception is stamped with
        ``error=True`` and the exception type — failures must be
        visible in the trace, not recorded as ordinary completions.
        """
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if exc_type is not None:
            self.attrs["error"] = True
            self.attrs["error_type"] = exc_type.__name__
        tracer = self._tracer
        reset_context(self._context_token)
        tracer._stack_var.reset(self._stack_token)
        tracer._record(
            SpanRecord(
                name=self.name,
                path=self._path,
                depth=self._depth,
                start=self._wall0 - tracer._epoch,
                wall_seconds=wall,
                cpu_seconds=cpu,
                attrs=self.attrs,
                index=0,  # assigned under the tracer lock
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_span_id=self.parent_span_id,
            )
        )


class Tracer:
    """Collects completed :class:`SpanRecord`\\ s for one process.

    The active-span stack lives in a :mod:`contextvars` variable, so
    concurrent threads each nest their own spans without corrupting
    each other's parent paths; the completed-record list is guarded by
    a lock. Records accumulate until :meth:`clear`.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._lock = threading.Lock()
        self._stack_var: "contextvars.ContextVar[Optional[Tuple[_ActiveSpan, ...]]]" = (
            contextvars.ContextVar("repro_tracer_stack", default=None)
        )
        self._epoch = time.perf_counter()

    @property
    def _stack(self) -> List[_ActiveSpan]:
        """The *current context's* open spans (compat/introspection)."""
        return list(self._stack_var.get() or ())

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span named ``name`` as a context manager.

        Keyword arguments become the span's attributes, recorded
        verbatim in the trace (keep them JSON-representable).
        """
        return _ActiveSpan(self, name, attrs)

    def _record(self, record: SpanRecord) -> SpanRecord:
        """Append one completed record, assigning its index atomically."""
        with self._lock:
            record.index = len(self.records)
            self.records.append(record)
        return record

    def record_span(
        self,
        name: str,
        wall_seconds: float,
        cpu_seconds: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
        start: Optional[float] = None,
    ) -> SpanRecord:
        """Record an already-measured span with explicit identity.

        The synthesis hook for phases that cannot be a ``with`` block
        because they cross threads — an interval stamped on one thread
        and closed on another is recorded here from its own stamps.
        ``span_id`` defaults to a fresh id; ``start`` defaults to
        ``wall_seconds`` ago.
        """
        now = time.perf_counter() - self._epoch
        return self._record(
            SpanRecord(
                name=name,
                path=name,
                depth=0,
                start=now - wall_seconds if start is None else start,
                wall_seconds=wall_seconds,
                cpu_seconds=cpu_seconds,
                attrs=dict(attrs or {}),
                index=0,
                trace_id=trace_id,
                span_id=span_id if span_id is not None else new_id(),
                parent_span_id=parent_span_id,
            )
        )

    def adopt(self, records: Iterable[Dict[str, Any]]) -> int:
        """Fold another process's span records into this tracer.

        Takes :meth:`SpanRecord.to_dict` dicts (the pool executor
        ships them back from workers), preserves their causal
        identity, paths, and durations, and re-indexes them locally.
        ``start`` offsets are worker-relative and kept as-is — tree
        assembly goes by span ids, not clocks. Returns the count.
        """
        count = 0
        for data in records:
            self._record(SpanRecord.from_dict(data))
            count += 1
        return count

    def snapshot_records(self) -> List[SpanRecord]:
        """A consistent copy of the completed records (lock-guarded)."""
        with self._lock:
            return list(self.records)

    def records_for_trace(self, trace_id: str) -> List[SpanRecord]:
        """Completed records belonging to ``trace_id``, in index order."""
        return [
            record
            for record in self.snapshot_records()
            if record.trace_id == trace_id
        ]

    def phase_timings(self) -> Dict[str, Dict[str, float]]:
        """Aggregate completed spans by name.

        Returns:
            ``{name: {"count": n, "wall_seconds": w, "cpu_seconds": c}}``
            with durations summed per name — the per-phase timing block
            embedded in run manifests.
        """
        phases: Dict[str, Dict[str, float]] = {}
        for record in self.snapshot_records():
            entry = phases.setdefault(
                record.name,
                {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0},
            )
            entry["count"] += 1
            entry["wall_seconds"] += record.wall_seconds
            entry["cpu_seconds"] += record.cpu_seconds
        return phases

    def write_jsonl(self, path) -> int:
        """Write every record to ``path`` as JSONL; returns the count.

        The file is rewritten whole (it is an artifact of this tracer's
        current state, not an append log), so emitting after each run
        of a long session always yields a complete, valid trace.
        """
        return write_jsonl(
            Path(path),
            (record.to_dict() for record in self.snapshot_records()),
        )

    def flame(self, width: int = 40) -> str:
        """ASCII flame summary: wall time per span *path*, as bars.

        Paths aggregate all spans sharing the same position in the
        hierarchy; bars scale to the largest total. Example::

            sweep                 ######################## 1.204s x1
            sweep/l2_replay       ##########               0.512s x4
        """
        totals: Dict[str, List[float]] = {}
        order: List[str] = []
        records = self.snapshot_records()
        for record in sorted(records, key=lambda r: (r.start, r.index)):
            if record.path not in totals:
                totals[record.path] = [0.0, 0]
                order.append(record.path)
            totals[record.path][0] += record.wall_seconds
            totals[record.path][1] += 1
        if not totals:
            return "(no spans recorded)"
        longest = max(len(path) for path in order)
        peak = max(wall for wall, _ in totals.values()) or 1.0
        lines = []
        for path in order:
            wall, count = totals[path]
            bar = "#" * max(1, int(round(width * wall / peak)))
            lines.append(
                f"{path:<{longest}}  {bar:<{width}} {wall:8.3f}s x{count}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop every completed record (open spans are unaffected)."""
        with self._lock:
            self.records.clear()

    def __repr__(self) -> str:
        return (
            f"Tracer(records={len(self.records)}, open={len(self._stack)})"
        )


#: The process-global tracer used by :func:`span` and the runners.
_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global :class:`Tracer` (one per worker process)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one.

    Intended for tests and embedders that need an isolated trace.
    """
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


def span(name: str, **attrs: Any) -> _ActiveSpan:
    """Open a span on the process-global tracer (see :meth:`Tracer.span`)."""
    return _GLOBAL_TRACER.span(name, **attrs)
