"""Fault injectors for the tests of the sweep executor and durable storage.

Each plugs into the one seam production keeps for it: a
:class:`FaultPlan` into ``repro.resilience.executor.fault_plan``,
which the pool's per-task wrapper consults (install it before the
pool starts; forked workers inherit it), and a :class:`FaultingIO`
into :func:`repro.storage.io.set_io`, under every durable writer. A
child process that should inject a fault installs the plan itself,
with ``src`` and the repository root on its ``PYTHONPATH``. Faults
fire on task keys, attempt numbers and counts of matching
operations, never on clocks or randomness, so a plan fires the same
way however the pool schedules its workers.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from typing import IO, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.resilience import executor
from repro.storage.io import PathLike, StorageIO, set_io

# -- worker faults ------------------------------------------------------

#: What a ``corrupt`` fault returns in place of the worker's result.
CORRUPTED = "__REPRO_FAULT_CORRUPTED__"

KINDS = ("raise", "hang", "exit", "corrupt")


class InjectedFaultError(ReproError):
    """What a ``raise`` fault throws inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One worker fault: what it does, and the tasks it fires on.

    Args:
        kind: ``raise`` throws :class:`InjectedFaultError`; ``hang``
            sleeps ``seconds``, for a timeout to reap; ``exit`` ends
            the worker process, for pool recovery; ``corrupt``
            returns :data:`CORRUPTED` instead of the result.
        at: The task key it fires at (``None``: every key).
        attempts: The attempt numbers it fires on (``None``: every
            attempt); ``frozenset({1})`` lets the retry succeed.
        seconds: How long a ``hang`` sleeps.
    """

    kind: str
    at: Optional[Any] = None
    attempts: Optional[FrozenSet[int]] = None
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )

    def matches(self, key: Any, attempt: int) -> bool:
        """Whether this spec fires for task ``key`` on ``attempt``."""
        return (self.at is None or key == self.at) and (
            self.attempts is None or attempt in self.attempts
        )


@dataclass
class FaultPlan:
    """The worker faults in force; the first matching spec wins.

    The pool's per-task wrapper calls :meth:`before` ahead of the
    worker and :meth:`transform` on its result.
    """

    specs: List[FaultSpec] = field(default_factory=list)

    def before(self, key: Any, attempt: int) -> None:
        """Fire the first matching ``raise``, ``hang`` or ``exit`` spec."""
        for spec in self.specs:
            if spec.kind == "corrupt" or not spec.matches(key, attempt):
                continue
            if spec.kind == "raise":
                raise InjectedFaultError(
                    f"injected fault at point {key!r} (attempt {attempt})"
                )
            if spec.kind == "exit":
                os._exit(1)
            time.sleep(spec.seconds)
            return

    def transform(self, key: Any, attempt: int, value: Any) -> Any:
        """``value``, or :data:`CORRUPTED` if a ``corrupt`` spec matches."""
        for spec in self.specs:
            if spec.kind == "corrupt" and spec.matches(key, attempt):
                return CORRUPTED
        return value


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` for the pool's per-task wrapper; returns it."""
    executor.fault_plan = plan
    return plan


def deactivate() -> None:
    """Remove the installed worker fault plan."""
    executor.fault_plan = None


# -- storage faults -----------------------------------------------------

IO_KINDS = ("crash", "torn", "enospc")
OPS = ("open", "write", "fsync", "replace", "fsync_dir")


class InjectedCrashError(BaseException):
    """The simulated machine died at an injected crash point.

    A :class:`BaseException`, like ``KeyboardInterrupt``, so no retry
    loop or ``except Exception`` handler can absorb a power failure
    and carry on; only the test that installed the plan catches it.
    """


@dataclass(frozen=True)
class IOFaultSpec:
    """One storage fault, fired once, at the ``nth`` matching operation.

    Args:
        kind: ``crash``: the machine dies instead of performing the
            operation, and every tracked file loses what was not
            fsync'd. ``torn``: the first ``keep`` units of a write
            (default: half) reach the disk, then the machine dies.
            ``enospc``: the operation fails with ``ENOSPC`` and has
            no effect; the process survives.
        op: The primitive it fires on, one of :data:`OPS`.
        path: Only operations whose path contains this substring
            match (``None``: every path).
        nth: Fire on the nth matching operation (1-based).
        keep: For ``torn``: how many units of the payload survive.
    """

    kind: str
    op: str
    path: Optional[str] = None
    nth: int = 1
    keep: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in IO_KINDS:
            raise ValueError(
                f"unknown I/O fault kind {self.kind!r}; choose from {IO_KINDS}"
            )
        if self.op not in OPS:
            raise ValueError(
                f"unknown I/O fault op {self.op!r}; choose from {OPS}"
            )
        if self.kind == "torn" and self.op != "write":
            raise ValueError("a torn fault applies only to the write op")

    def matches(self, op: str, path: str) -> bool:
        """Whether an operation ``op`` on ``path`` is selected."""
        return op == self.op and (self.path is None or self.path in path)


class IOFaultPlan:
    """An ordered list of storage faults and their firing state."""

    def __init__(self, specs: Sequence[IOFaultSpec] = ()) -> None:
        self.specs = list(specs)
        #: Matching operations counted per spec, up to its ``nth``.
        self.seen = [0] * len(self.specs)

    def select(self, op: str, path: str) -> Optional[IOFaultSpec]:
        """The spec that fires for this operation, if any.

        Counts the operation against every matching spec that has not
        fired, and returns the first whose ordinal it reaches.
        """
        chosen: Optional[IOFaultSpec] = None
        for index, spec in enumerate(self.specs):
            if self.seen[index] < spec.nth and spec.matches(op, path):
                self.seen[index] += 1
                if chosen is None and self.seen[index] == spec.nth:
                    chosen = spec
        return chosen


class FaultingIO(StorageIO):
    """A :class:`~repro.storage.io.StorageIO` that injects storage faults.

    It tracks every handle it opens for writing together with the
    file's durable length: the size last made stable by an fsync, or
    present at open. A crash flushes the tracked handles and truncates
    their files back to that length, so what was written but never
    fsync'd is lost as on power failure, and every later operation
    raises :class:`InjectedCrashError`.

    With ``record=True`` every primitive appends ``(op, path)`` to
    :attr:`operations`, so a dry run with an empty plan enumerates a
    workload's injection points.
    """

    def __init__(
        self, plan: Optional[IOFaultPlan] = None, record: bool = False
    ) -> None:
        self.plan = plan if plan is not None else IOFaultPlan()
        self.record = record
        self.operations: List[Tuple[str, str]] = []
        self.crashed = False
        #: Each handle opened for writing -> its file's durable length.
        self._durable: Dict[IO, int] = {}

    def _fault(self, op: str, path: str) -> Optional[IOFaultSpec]:
        """Count one operation; crash or fail it if a spec fires.

        Returns a firing ``torn`` spec for :meth:`write` to carry out.
        """
        if self.crashed:
            raise InjectedCrashError(
                f"storage I/O after injected crash: {op} {path}"
            )
        if self.record:
            self.operations.append((op, path))
        spec = self.plan.select(op, path)
        if spec is None or spec.kind == "torn":
            return spec
        if spec.kind == "crash":
            raise self._crash(op, path)
        code = errno.ENOSPC
        raise OSError(code, f"{os.strerror(code)} [injected at {op}]", path)

    def _crash(self, op: str, path: str) -> InjectedCrashError:
        """Simulate power failure: lose everything not fsync'd."""
        self.crashed = True
        for handle, durable in self._durable.items():
            try:
                handle.flush()  # a closed handle raises, and is skipped
                os.truncate(handle.name, durable)
            except (OSError, ValueError):
                pass
        return InjectedCrashError(f"injected crash at {op} {path}")

    def _note_durable(self, handle: IO) -> None:
        """Record the post-fsync size as the file's durable length."""
        if handle in self._durable:
            self._durable[handle] = os.fstat(handle.fileno()).st_size

    def open(self, path: PathLike, mode: str = "r", **kwargs: Any) -> IO:
        """Open ``path``, tracking a writable handle's durable length."""
        self._fault("open", os.fspath(path))
        # Sample the durable size before opening: "w" truncates.
        durable = 0
        if "w" not in mode and "x" not in mode and os.path.exists(path):
            durable = os.path.getsize(path)
        handle = open(path, mode, **kwargs)
        if any(flag in mode for flag in "wax+"):
            self._durable[handle] = durable
        return handle

    def write(self, handle: IO, data) -> int:
        """Write ``data``, or tear it and crash."""
        spec = self._fault("write", handle.name)
        if spec is None:
            return handle.write(data)
        # The torn prefix reaches the platter before the power fails.
        keep = len(data) // 2 if spec.keep is None else spec.keep
        handle.write(data[:keep])
        super().fsync(handle)
        self._note_durable(handle)
        raise self._crash("write", handle.name)

    def fsync(self, handle: IO) -> None:
        """Fsync ``handle`` and advance its durable length."""
        self._fault("fsync", handle.name)
        super().fsync(handle)
        self._note_durable(handle)

    def replace(self, src: PathLike, dst: PathLike) -> None:
        """Rename ``src`` over ``dst``."""
        self._fault("replace", os.fspath(dst))
        super().replace(src, dst)

    def fsync_dir(self, path: PathLike) -> None:
        """Fsync the directory ``path``."""
        self._fault("fsync_dir", os.fspath(path))
        super().fsync_dir(path)


def activate_io_plan(plan: IOFaultPlan, record: bool = False) -> FaultingIO:
    """Install a :class:`FaultingIO` for ``plan``; returns it."""
    io = FaultingIO(plan=plan, record=record)
    set_io(io)
    return io


def deactivate_io_plan() -> None:
    """Restore passthrough storage I/O."""
    set_io(None)
