"""Causal trace context: request-scoped trace/span identity.

A :class:`TraceContext` names *where in a request's causal tree the
current code is running*: the ``trace_id`` shared by every span of one
request (a sweep, a table build, a benchmark run), the ``span_id``
of the innermost active span, and that span's ``parent_span_id``. The
ambient context lives in a :mod:`contextvars` variable, so it is
isolated per thread *and* per ``asyncio``-style logical context —
concurrent threads each see only their own request.

Identity generation is pluggable through :class:`IdSource`. A seeded
source is **deterministic**: the N-th id drawn from ``IdSource(seed)``
is a pure function of ``(seed, N)``, so tests (and byte-stability
checks over emitted traces) can pin ``REPRO_TRACE_SEED`` and get
identical ids on every run. Without a seed, ids are random.

Cross-process propagation is by value, not by inheritance: the
resilient pool executor embeds ``TraceContext.to_wire()`` in each
pickled task envelope and the worker guard installs it around the
task, so worker-side spans re-parent under the *submitting* span —
surviving fork, spawn, pool re-creation, and retry (which fork-time
contextvar inheritance would not: tasks are submitted long after the
fork).

Usage::

    from repro.obs.context import current_context, new_trace, activate

    with activate(new_trace()):          # open a request root
        with span("sweep"):              # parented under the root
            ...

Like the rest of :mod:`repro.obs`, nothing here runs on the simulator
hot path; contexts change at phase boundaries only.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
from typing import Any, Dict, Iterator, Optional, Tuple

#: Environment variable seeding the default :class:`IdSource`. When
#: set, every process that inherits it draws the same id sequence —
#: the byte-stability switch for tests and golden traces.
TRACE_SEED_ENV_VAR = "REPRO_TRACE_SEED"

#: Hex characters per generated id (64-bit ids, OTel-style halves).
_ID_HEX_CHARS = 16


class TraceContext:
    """One position in a request's causal span tree (immutable).

    Attributes:
        trace_id: Identity shared by every span of one request.
        span_id: The innermost active span at this position.
        parent_span_id: That span's parent, or ``None`` at the root.
    """

    __slots__ = ("trace_id", "span_id", "parent_span_id")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_span_id: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)
        object.__setattr__(self, "parent_span_id", parent_span_id)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("TraceContext is immutable")

    def child(self, span_id: str) -> "TraceContext":
        """The context of a child span ``span_id`` under this one."""
        return TraceContext(self.trace_id, span_id, self.span_id)

    def to_wire(self) -> Tuple[str, str, Optional[str]]:
        """Picklable tuple form for the pool task envelope."""
        return (self.trace_id, self.span_id, self.parent_span_id)

    @classmethod
    def from_wire(
        cls, wire: Optional[Tuple[str, str, Optional[str]]]
    ) -> Optional["TraceContext"]:
        """Rebuild from :meth:`to_wire` output (``None`` passes through)."""
        if wire is None:
            return None
        trace_id, span_id, parent_span_id = wire
        return cls(trace_id, span_id, parent_span_id)

    def to_dict(self) -> Dict[str, Optional[str]]:
        """Plain-dict form (JSON-representable)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.to_wire() == other.to_wire()
        )

    def __hash__(self) -> int:
        return hash(self.to_wire())

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, "
            f"parent_span_id={self.parent_span_id!r})"
        )


class IdSource:
    """Generates trace/span ids; deterministic when seeded.

    Args:
        seed: Any string. When given, the N-th id is
            ``sha256(f"{seed}:{N}")[:16]`` — a pure function of the
            seed and the draw counter, so two sources with the same
            seed emit identical sequences (the byte-stable test mode).
            When ``None``, the source seeds itself from ``os.urandom``
            (unique per process, non-reproducible).
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: Optional[str] = None) -> None:
        if seed is None:
            seed = os.urandom(16).hex()
        self.seed = str(seed)
        self._counter = 0

    def next_id(self) -> str:
        """The next 16-hex-char id in this source's sequence."""
        self._counter += 1
        digest = hashlib.sha256(
            f"{self.seed}:{self._counter}".encode("ascii")
        ).hexdigest()
        return digest[:_ID_HEX_CHARS]

    def __repr__(self) -> str:
        return f"IdSource(drawn={self._counter})"


def _default_id_source() -> IdSource:
    """A fresh default source, honoring ``REPRO_TRACE_SEED``."""
    return IdSource(os.environ.get(TRACE_SEED_ENV_VAR) or None)


#: The process-global id source spans draw from by default.
_ID_SOURCE = _default_id_source()

#: The ambient trace context of the current thread/logical context.
_CONTEXT: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def get_id_source() -> IdSource:
    """The process-global :class:`IdSource`."""
    return _ID_SOURCE


def set_id_source(source: IdSource) -> IdSource:
    """Swap the process-global id source; returns the previous one.

    Tests install ``IdSource(seed)`` here (or export
    ``REPRO_TRACE_SEED``) to make every generated id reproducible; the
    worker guard installs a source seeded from the inherited span id
    so worker-side ids are deterministic *and* collision-free across
    the pool.
    """
    global _ID_SOURCE
    previous = _ID_SOURCE
    _ID_SOURCE = source
    return previous


def reset_id_source() -> IdSource:
    """Re-derive the default source from the environment (tests)."""
    return set_id_source(_default_id_source())


def new_id() -> str:
    """One id from the process-global source."""
    return _ID_SOURCE.next_id()


def new_trace(id_source: Optional[IdSource] = None) -> TraceContext:
    """A fresh root context: new trace id, new root span id.

    Spans opened under ``activate(new_trace())`` parent under this
    root ``span_id`` and share its ``trace_id``.
    """
    source = id_source if id_source is not None else _ID_SOURCE
    return TraceContext(
        trace_id=source.next_id(), span_id=source.next_id(),
        parent_span_id=None,
    )


def current_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`, or ``None`` outside a trace."""
    return _CONTEXT.get()


def set_context(
    context: Optional[TraceContext],
) -> "contextvars.Token[Optional[TraceContext]]":
    """Install ``context`` as ambient; returns the token to restore."""
    return _CONTEXT.set(context)


def reset_context(
    token: "contextvars.Token[Optional[TraceContext]]",
) -> None:
    """Undo a :func:`set_context` (tokens restore in LIFO order)."""
    _CONTEXT.reset(token)


@contextlib.contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """``with activate(ctx):`` — ambient context for the block's duration."""
    token = set_context(context)
    try:
        yield context
    finally:
        reset_context(token)
