"""In-memory span recorder and call shims for the traced benchmark repeat.

Records use the field layout of ``repro.obs.spans.SpanRecord`` (plus an
``end`` stamp) so ``repro-trace-report`` can read the JSONL, but this
module imports nothing from ``repro``: the benchmark must keep working
when the program's own observability code changes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext


class Recorder:
    """Spans of one traced repeat, kept in memory until :meth:`write_jsonl`.

    A pool worker forked while a span is open inherits the recorder and
    its stack, so worker spans nest under that span. The parent never
    sees a worker's memory, so a worker appends each span it closes to
    ``<worker_dir>/<pid>.jsonl`` instead.
    """

    def __init__(self, trace_id: str, worker_dir: str) -> None:
        self.trace_id = trace_id
        self.records = []
        self._stack = []
        self._ids = 0
        self._pid = os.getpid()
        self._worker_dir = worker_dir

    @contextmanager
    def span(self, name: str, **attrs):
        pid = os.getpid()
        self._ids += 1
        span_id = f"{pid:06x}{self._ids:010x}"[-16:]
        parent = self._stack[-1] if self._stack else None
        path = f"{parent['path']}/{name}" if parent else name
        attrs["pid"] = pid
        self._stack.append({"span_id": span_id, "path": path, "attrs": attrs})
        cpu, start = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record = {
                "name": name, "path": path, "depth": len(self._stack),
                "start": start, "end": end, "wall_seconds": end - start,
                "cpu_seconds": time.process_time() - cpu, "attrs": attrs,
                "index": len(self.records), "trace_id": self.trace_id,
                "span_id": span_id,
                "parent_span_id": parent["span_id"] if parent else None,
            }
            self.records.append(record)
            if pid != self._pid:
                worker_file = os.path.join(self._worker_dir, f"{pid}.jsonl")
                with open(worker_file, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")

    def shim(self, owner, attr: str, name: str, describe=None):
        """Record a span around every call of ``owner.attr``; returns an undo."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else {}
            with self.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    def counter(self, owner, attr: str, key: str):
        """Count calls of ``owner.attr`` in ``key`` of the innermost open
        span's attributes; returns an undo."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            if self._stack:
                attrs = self._stack[-1]["attrs"]
                attrs[key] = attrs.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        return lambda: setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        """Write this process's spans, then every worker's, to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
            for entry in sorted(os.listdir(self._worker_dir)):
                if entry.endswith(".jsonl"):
                    with open(os.path.join(self._worker_dir, entry)) as part:
                        handle.write(part.read())


class NullRecorder:
    """The untraced stand-in: every span is a no-op."""

    def span(self, name: str, **attrs):
        return nullcontext()


def self_seconds(records) -> dict:
    """``{span_id: self time}``: wall minus the walls of same-process children.

    Children in another process (pool workers) ran in parallel with the
    parent, so they do not reduce its self time.
    """
    by_id = {r["span_id"]: r for r in records}
    own = {r["span_id"]: r["wall_seconds"] for r in records}
    for record in records:
        parent = by_id.get(record["parent_span_id"])
        if parent is not None and parent["attrs"]["pid"] == record["attrs"]["pid"]:
            own[parent["span_id"]] -= record["wall_seconds"]
    return own
