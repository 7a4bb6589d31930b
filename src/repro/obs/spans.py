"""Tracing spans: nestable wall+CPU timers with a JSONL trace format.

A *span* measures one named phase of work — an L1 capture, an L2
replay, a table build. Spans nest (a per-thread stack via
:mod:`contextvars`), are based on the monotonic clocks
(``time.perf_counter`` for wall time, ``time.process_time`` for CPU
time — both immune to system clock steps), and record their
attributes, depth, and full path through the enclosing spans.
Durations are *inclusive* of child spans.

Every record also carries **causal identity**: a ``trace_id`` shared
by all spans of one tree, its own ``span_id``, and the
``parent_span_id`` of the enclosing span. Ids are random 16-hex-char
strings (64 bits), so spans recorded in different processes do not
collide. A top-level span roots a fresh trace of its own, so every
record is attributable; :meth:`Tracer.adopt` hangs span records
shipped from another process under the adopting thread's open span.

Usage::

    from repro.obs import span, get_tracer

    with span("l2_replay", l2="256K-32", associativity=4):
        with span("finalize"):
            ...

    get_tracer().write_jsonl("trace.jsonl")   # one record per span

``repro-trace-report trace.jsonl`` renders that file as per-path
totals and an ASCII flame (:mod:`repro.obs.trace_report`).

A span that unwinds on an exception is still recorded, stamped with
``error=True`` and the exception type in its attributes.

Instrumentation discipline: spans wrap *phases*, never per-access
work. Nothing in this module is invoked from the simulator hot path.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.jsonl import write_jsonl


def _new_id() -> str:
    """A random 16-hex-char span or trace id."""
    return os.urandom(8).hex()


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

    def __repr__(self) -> str:
        return (
            f"SpanRecord(path={self.path!r}, "
            f"wall_seconds={self.wall_seconds:.6f})"
        )


class _ActiveSpan:
    """Context manager for one in-flight span (created by ``Tracer.span``)."""

    __slots__ = (
        "_tracer", "name", "attrs", "_wall0", "_cpu0", "_path", "_depth",
        "trace_id", "span_id", "parent_span_id", "_stack_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        """Start the clocks, resolve causal identity, push the stack.

        The parent is the enclosing span of *this* context (thread);
        with no enclosing span, the span roots a fresh trace.
        """
        tracer = self._tracer
        stack: Tuple["_ActiveSpan", ...] = tracer._stack_var.get() or ()
        self._depth = len(stack)
        parent = stack[-1] if stack else None
        self._path = f"{parent._path}/{self.name}" if parent else self.name
        self.span_id = _new_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            self.trace_id = _new_id()
            self.parent_span_id = None
        self._stack_token = tracer._stack_var.set(stack + (self,))
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
        tracer._stack_var.reset(self._stack_token)
        # Positional arguments, in field order: every sweep task pays
        # this call, and keyword parsing is most of its cost.
        tracer._record(
            SpanRecord(
                self.name, self._path, self._depth,
                self._wall0 - tracer._epoch, wall, cpu, self.attrs,
                0,  # index: assigned under the tracer lock
                self.trace_id, self.span_id, self.parent_span_id,
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

    def adopt(self, records: Iterable[SpanRecord]) -> int:
        """Fold another process's span records into this tracer.

        Takes :class:`SpanRecord` objects — the pool executor ships a
        worker's records back as they are (they pickle) — and takes
        them over, re-indexing them locally and setting their trace
        and parent ids in place.
        When the calling thread has a span open on this tracer, every
        record joins that span's trace and each shipped root (no
        ``parent_span_id``) becomes its child; with none open, the
        records keep their shipped identity. Paths, depths, durations,
        and attributes stay as shipped; ``start`` offsets are
        worker-relative — tree assembly goes by span ids, not clocks.
        Returns the count.
        """
        stack = self._stack_var.get()
        host = stack[-1] if stack else None
        count = 0
        for record in records:
            if host is not None:
                record.trace_id = host.trace_id
                if record.parent_span_id is None:
                    record.parent_span_id = host.span_id
            self._record(record)
            count += 1
        return count

    def snapshot_records(self) -> List[SpanRecord]:
        """A consistent copy of the completed records (lock-guarded)."""
        with self._lock:
            return list(self.records)

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
