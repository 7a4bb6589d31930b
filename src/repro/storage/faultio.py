"""Deterministic crash/corruption injection for durable-storage I/O.

:class:`FaultingIO` subclasses the passthrough
:class:`~repro.storage.io.StorageIO` and consults an
:class:`IOFaultPlan` before every primitive. A plan is a
``;``-separated list of specs in the mini-language of
:mod:`repro.resilience.faults`::

    <kind>@<op>[:option=value,...]

``kind`` is one of:

``crash``
    The machine dies *instead of* performing the operation: every
    tracked writable handle is flushed, every tracked file is
    truncated back to its last-fsync'd durable length (un-synced data
    is lost, exactly as on power failure), and
    :class:`InjectedCrashError` is raised. All subsequent I/O through
    this instance raises too — the process is "down" until the plan
    is deactivated.
``torn``
    A torn write: the first ``keep`` units of the payload are written
    and fsync'd (they survive), then the machine crashes as above.
``short``
    A short write: the first ``keep`` units are written (buffered, not
    synced) and the call fails with ``OSError(EIO)``. The process
    survives.
``enospc`` / ``eio``
    The operation fails with ``OSError(ENOSPC)`` / ``OSError(EIO)``
    and has no effect. The process survives.

``op`` selects the primitive: ``open``, ``write``, ``fsync``,
``replace``, ``fsync_dir``, or ``*`` for any. Options:

``path=<substring>``
    Only operations whose path contains the substring match.
``nth=<n>``
    Fire on the n-th matching operation (1-based; default 1).
``keep=<n>``
    For ``torn``/``short``: how many units (bytes or characters) of
    the payload survive. Default: half, rounded down.

Example — crash at the third write that touches a checkpoint::

    REPRO_IO_FAULTS='crash@write:path=.ckpt,nth=3'

Each spec fires exactly once; determinism comes from ordinal
counting, not randomness, so a test can enumerate *every* injection
point of a workload by sweeping ``nth``.

Like :mod:`repro.resilience.faults`, activation is process-global
(:func:`activate_io_plan` / :func:`deactivate_io_plan`) or via the
``REPRO_IO_FAULTS`` environment variable, which spawned worker
processes inherit. The environment plan is parsed once per distinct
value and the same instance is returned thereafter, so its ordinal
counters persist across calls within one process.

Depends only on the standard library and :mod:`repro.errors`.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from repro.storage.io import PathLike, StorageIO, set_io

ENV_VAR = "REPRO_IO_FAULTS"

KINDS = ("crash", "torn", "short", "enospc", "eio")
OPS = ("open", "write", "fsync", "replace", "fsync_dir", "*")

#: Kinds that only make sense on the ``write`` primitive.
_WRITE_ONLY_KINDS = ("torn", "short")


class InjectedCrashError(BaseException):
    """The simulated machine died at an injected crash point.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``)
    so that retry loops and blanket ``except Exception`` handlers
    cannot accidentally absorb a "power failure" and carry on — the
    only legitimate handler is the test that installed the plan.
    """


@dataclass(frozen=True)
class IOFaultSpec:
    """One parsed fault from the ``REPRO_IO_FAULTS`` mini-language."""

    kind: str
    op: str
    path: Optional[str] = None
    nth: int = 1
    keep: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown I/O fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.op not in OPS:
            raise ValueError(
                f"unknown I/O fault op {self.op!r}; expected one of {OPS}"
            )
        if self.kind in _WRITE_ONLY_KINDS and self.op not in ("write", "*"):
            raise ValueError(
                f"fault kind {self.kind!r} applies only to the write op"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.keep is not None and self.keep < 0:
            raise ValueError(f"keep must be >= 0, got {self.keep}")

    def matches(self, op: str, path: str) -> bool:
        """Whether an operation of ``op`` on ``path`` is selected."""
        if self.op != "*" and self.op != op:
            return False
        if self.path is not None and self.path not in path:
            return False
        return True


def parse_io_spec(text: str) -> IOFaultSpec:
    """Parse one ``<kind>@<op>[:option=value,...]`` spec."""
    text = text.strip()
    if not text:
        raise ValueError("empty I/O fault spec")
    head, _, options = text.partition(":")
    kind, sep, op = head.partition("@")
    if not sep or not op:
        raise ValueError(
            f"I/O fault spec {text!r} must name an op: <kind>@<op>[:opts]"
        )
    kwargs: Dict[str, Any] = {"kind": kind.strip(), "op": op.strip()}
    if options:
        for item in options.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed option {item!r} in I/O fault spec {text!r}"
                )
            value = value.strip()
            if key == "path":
                kwargs["path"] = value
            elif key in ("nth", "keep"):
                try:
                    kwargs[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"option {key}={value!r} in I/O fault spec {text!r} "
                        "is not an integer"
                    ) from None
            else:
                raise ValueError(
                    f"unknown option {key!r} in I/O fault spec {text!r}"
                )
    return IOFaultSpec(**kwargs)


@dataclass
class IOFaultPlan:
    """An ordered list of fault specs plus their firing state."""

    specs: List[IOFaultSpec] = field(default_factory=list)
    #: Matching-operation count per spec (parallel to ``specs``).
    seen: List[int] = field(default_factory=list)
    #: Whether each spec has already fired (each fires exactly once).
    fired: List[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.seen = [0] * len(self.specs)
        self.fired = [False] * len(self.specs)

    def select(self, op: str, path: str) -> Optional[IOFaultSpec]:
        """The spec that fires for this operation, if any.

        Counts the operation against every matching un-fired spec and
        returns the first whose ordinal is reached.
        """
        chosen: Optional[IOFaultSpec] = None
        for index, spec in enumerate(self.specs):
            if self.fired[index] or not spec.matches(op, path):
                continue
            self.seen[index] += 1
            if chosen is None and self.seen[index] == spec.nth:
                self.fired[index] = True
                chosen = spec
        return chosen


def parse_io_plan(text: str) -> IOFaultPlan:
    """Parse a ``;``-separated list of I/O fault specs."""
    specs = [
        parse_io_spec(part) for part in text.split(";") if part.strip()
    ]
    return IOFaultPlan(specs=specs)


class FaultingIO(StorageIO):
    """A :class:`~repro.storage.io.StorageIO` that injects faults.

    Tracks every handle it opens for writing together with the file's
    *durable length* — the size last made stable by an fsync (or
    present at open). A ``crash`` fault flushes all tracked handles
    and truncates their files back to that length, so data written
    but never fsync'd is lost exactly as on power failure; readers
    that later observe the file see what a real post-crash mount
    would.

    With ``record=True`` every primitive appends ``(op, path)`` to
    :attr:`operations` — a dry run with an empty plan enumerates a
    workload's injection points so a harness can sweep ``nth`` over
    all of them.
    """

    def __init__(self, plan: Optional[IOFaultPlan] = None, record: bool = False):
        self.plan = plan if plan is not None else IOFaultPlan()
        self.record = record
        self.operations: List[Tuple[str, str]] = []
        self.crashed = False
        #: id(handle) -> (path, handle, durable-length-in-bytes)
        self._tracked: Dict[int, Tuple[str, IO, int]] = {}

    # -- fault machinery -------------------------------------------------

    def _check(self, op: str, path: str) -> Optional[IOFaultSpec]:
        if self.crashed:
            raise InjectedCrashError(
                f"storage I/O after injected crash: {op} {path}"
            )
        if self.record:
            self.operations.append((op, path))
        return self.plan.select(op, path)

    def _crash(self, op: str, path: str) -> "InjectedCrashError":
        """Simulate power failure: lose everything not fsync'd."""
        self.crashed = True
        for tracked_path, handle, durable in self._tracked.values():
            try:
                handle.flush()
            except (OSError, ValueError):
                continue
            try:
                os.truncate(tracked_path, durable)
            except OSError:
                pass
        return InjectedCrashError(
            f"injected crash at {op} {path}"
        )

    @staticmethod
    def _is_writable_mode(mode: str) -> bool:
        return any(flag in mode for flag in ("w", "a", "x", "+"))

    def _durable_size(self, path: str, mode: str) -> int:
        if "w" in mode or "x" in mode:
            return 0
        try:
            return os.stat(path).st_size
        except OSError:
            return 0

    def _raise_errno(self, code: int, op: str, path: str) -> None:
        raise OSError(code, f"{os.strerror(code)} [injected at {op}]", path)

    # -- primitives ------------------------------------------------------

    def open(self, path: PathLike, mode: str = "r", **kwargs: Any) -> IO:
        path_text = os.fspath(path)
        spec = self._check("open", path_text)
        if spec is not None:
            if spec.kind == "crash":
                raise self._crash("open", path_text)
            if spec.kind == "enospc":
                self._raise_errno(errno.ENOSPC, "open", path_text)
            if spec.kind == "eio":
                self._raise_errno(errno.EIO, "open", path_text)
        # Durable size must be sampled before open: "w" truncates.
        durable = self._durable_size(path_text, mode)
        handle = open(path, mode, **kwargs)
        if self._is_writable_mode(mode):
            self._tracked[id(handle)] = (path_text, handle, durable)
        return handle

    def write(self, handle: IO, data) -> int:
        path_text = getattr(handle, "name", "")
        path_text = path_text if isinstance(path_text, str) else ""
        spec = self._check("write", path_text)
        if spec is not None:
            if spec.kind == "crash":
                raise self._crash("write", path_text)
            if spec.kind in ("torn", "short"):
                keep = spec.keep if spec.keep is not None else len(data) // 2
                prefix = data[:keep]
                if prefix:
                    handle.write(prefix)
                if spec.kind == "torn":
                    # The torn prefix reached the platter before the
                    # power failed.
                    try:
                        handle.flush()
                        os.fsync(handle.fileno())
                    except (OSError, ValueError):
                        pass
                    self._note_durable(handle)
                    raise self._crash("write", path_text)
                self._raise_errno(errno.EIO, "write", path_text)
            if spec.kind == "enospc":
                self._raise_errno(errno.ENOSPC, "write", path_text)
            if spec.kind == "eio":
                self._raise_errno(errno.EIO, "write", path_text)
        return handle.write(data)

    def fsync(self, handle: IO) -> None:
        path_text = getattr(handle, "name", "")
        path_text = path_text if isinstance(path_text, str) else ""
        spec = self._check("fsync", path_text)
        if spec is not None:
            if spec.kind == "crash":
                raise self._crash("fsync", path_text)
            if spec.kind == "enospc":
                self._raise_errno(errno.ENOSPC, "fsync", path_text)
            if spec.kind == "eio":
                self._raise_errno(errno.EIO, "fsync", path_text)
        handle.flush()
        os.fsync(handle.fileno())
        self._note_durable(handle)

    def replace(self, src: PathLike, dst: PathLike) -> None:
        dst_text = os.fspath(dst)
        spec = self._check("replace", dst_text)
        if spec is not None:
            if spec.kind == "crash":
                raise self._crash("replace", dst_text)
            if spec.kind == "enospc":
                self._raise_errno(errno.ENOSPC, "replace", dst_text)
            if spec.kind == "eio":
                self._raise_errno(errno.EIO, "replace", dst_text)
        os.replace(src, dst)

    def fsync_dir(self, path: PathLike) -> None:
        path_text = os.fspath(path)
        spec = self._check("fsync_dir", path_text)
        if spec is not None:
            if spec.kind == "crash":
                raise self._crash("fsync_dir", path_text)
            if spec.kind == "enospc":
                self._raise_errno(errno.ENOSPC, "fsync_dir", path_text)
            if spec.kind == "eio":
                self._raise_errno(errno.EIO, "fsync_dir", path_text)
        super().fsync_dir(path)

    def _note_durable(self, handle: IO) -> None:
        """Record the post-fsync size as the file's durable length."""
        entry = self._tracked.get(id(handle))
        if entry is None:
            return
        path_text, tracked_handle, _ = entry
        try:
            size = os.fstat(handle.fileno()).st_size
        except (OSError, ValueError):
            return
        self._tracked[id(handle)] = (path_text, tracked_handle, size)


def activate_io_plan(plan: Union[str, IOFaultPlan], record: bool = False) -> FaultingIO:
    """Install a :class:`FaultingIO` for ``plan`` process-wide.

    Accepts either a parsed plan or mini-language text. Returns the
    installed instance (useful for inspecting :attr:`~FaultingIO.crashed`
    or :attr:`~FaultingIO.operations`). Call :func:`deactivate_io_plan`
    to restore normal I/O.
    """
    if isinstance(plan, str):
        plan = parse_io_plan(plan)
    io = FaultingIO(plan=plan, record=record)
    set_io(io)
    return io


def deactivate_io_plan() -> None:
    """Remove any installed fault plan and restore passthrough I/O."""
    set_io(None)


#: (raw env value, parsed FaultingIO) — the environment plan keeps its
#: ordinal counters for the life of the process.
_ENV_CACHE: Optional[Tuple[str, FaultingIO]] = None


def io_from_environment() -> Optional[FaultingIO]:
    """The ``REPRO_IO_FAULTS`` plan for this process, if set."""
    global _ENV_CACHE
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        _ENV_CACHE = None
        return None
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    io = FaultingIO(plan=parse_io_plan(raw))
    _ENV_CACHE = (raw, io)
    return io
