"""Deterministic fault injection for the resilient sweep executor.

The guarantees the resilience layer makes — retries recover transient
failures, timeouts reap hung workers, pool death loses no completed
work — are only worth anything if they are *provable*. This module
injects the failures on demand, deterministically, so the test suite
can drive every recovery path on a real worker pool:

- :class:`FaultSpec` — one injector: ``raise``, ``hang``, ``exit``,
  or ``corrupt``, firing at a chosen point key, call ordinal, and/or
  attempt number, optionally behind a seeded coin;
- :class:`FaultPlan` — a composable list of specs, installed
  process-wide with :func:`activate` (fork-inherited by pool workers)
  or via the ``REPRO_FAULTS`` environment variable (works across
  spawn and CLI process boundaries);
- :func:`parse_plan` — the spec mini-language, e.g.
  ``"raise@2:attempts=1;hang@4:seconds=60"``.

Injection is keyed on ``(point key, attempt)`` rather than wall-clock
or shared counters, so a plan fires identically regardless of worker
scheduling — the same discipline the simulators apply to their seeds.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, FrozenSet, List, Optional

from repro.errors import ConfigurationError, ReproError

#: Environment variable carrying a :func:`parse_plan` spec string.
ENV_VAR = "REPRO_FAULTS"

#: Sentinel a ``corrupt`` fault substitutes for the real result when no
#: custom corruptor is given — trivially detectable by comparison.
CORRUPTED = "__REPRO_FAULT_CORRUPTED__"

#: Recognized fault kinds.
KINDS = ("raise", "hang", "exit", "corrupt")


class InjectedFaultError(ReproError):
    """The exception a ``raise`` fault throws inside a worker."""


def _coin(seed: int, key: Any, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, key, attempt)."""
    digest = hashlib.sha256(
        f"fault:{seed}:{key!r}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One injector: where it fires and what it does.

    A spec fires when *all* of its configured selectors match:

    Args:
        kind: One of :data:`KINDS`.
        at: Fire when the task key equals this (``None`` = any key).
        nth: Fire on the Nth guarded call in the worker process,
            1-based (``None`` = any ordinal).
        attempts: Fire only on these attempt numbers (``None`` = any);
            restricting to ``{1}`` makes a fault *transient*, so a
            retry succeeds.
        probability: Seeded coin in (0, 1]; ``None`` = always when the
            selectors match. The draw is a pure function of
            ``(seed, key, attempt)``.
        seed: Seed for the probability coin.
        seconds: Sleep duration for ``hang`` faults.
        exit_code: Status for ``exit`` faults (via ``os._exit``).
        corruptor: Optional callable replacing the result for
            ``corrupt`` faults; defaults to substituting
            :data:`CORRUPTED`.
    """

    kind: str
    at: Optional[Any] = None
    nth: Optional[int] = None
    attempts: Optional[FrozenSet[int]] = None
    probability: Optional[float] = None
    seed: int = 0
    seconds: float = 3600.0
    exit_code: int = 1
    corruptor: Optional[Callable[[Any], Any]] = None

    def __post_init__(self) -> None:
        """Validate the fault kind and probability range."""
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if self.probability is not None and not 0 < self.probability <= 1:
            raise ConfigurationError("fault probability must be in (0, 1]")

    def matches(self, key: Any, attempt: int, call_index: int) -> bool:
        """Whether this spec fires for the given call."""
        if self.at is not None and key != self.at:
            return False
        if self.nth is not None and call_index != self.nth:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.probability is not None:
            return _coin(self.seed, key, attempt) < self.probability
        return True


@dataclass
class FaultPlan:
    """An ordered, composable set of :class:`FaultSpec` injectors.

    The executor's worker guard calls :meth:`before` ahead of each
    task and :meth:`transform` on each result; both are no-ops unless
    a spec matches. ``calls`` counts guarded calls in *this* process
    (the ``nth`` selector's ordinal).
    """

    specs: List[FaultSpec] = field(default_factory=list)
    calls: int = 0

    def extend(self, *specs: FaultSpec) -> "FaultPlan":
        """Append specs; returns self for chaining."""
        self.specs.extend(specs)
        return self

    def before(self, key: Any, attempt: int) -> None:
        """Fire any matching ``raise``/``hang``/``exit`` fault.

        Called by the worker guard before the real task runs. A
        ``hang`` sleeps (so a timeout can reap it); an ``exit`` kills
        the worker process outright (so pool recovery can be proven).
        """
        self.calls += 1
        for spec in self.specs:
            if spec.kind == "corrupt":
                continue
            if not spec.matches(key, attempt, self.calls):
                continue
            if spec.kind == "raise":
                raise InjectedFaultError(
                    f"injected fault at point {key!r} (attempt {attempt})"
                )
            if spec.kind == "hang":
                time.sleep(spec.seconds)
            elif spec.kind == "exit":
                os._exit(spec.exit_code)

    def transform(self, key: Any, attempt: int, result: Any) -> Any:
        """Apply any matching ``corrupt`` fault to ``result``."""
        for spec in self.specs:
            if spec.kind != "corrupt":
                continue
            if spec.matches(key, attempt, self.calls):
                corruptor = spec.corruptor
                return corruptor(result) if corruptor else CORRUPTED
        return result


#: The process-wide plan; ``None`` means injection is inert.
_ACTIVE: Optional[FaultPlan] = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; forked workers inherit it.

    Returns the plan so call sites can keep a handle. Call before the
    worker pool is created — pool processes fork (and so inherit the
    module global) at first task submission.
    """
    global _ACTIVE
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    """Remove any installed plan (the normal, fault-free state)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The plan injection runs under, if any.

    An explicitly :func:`activate`-d plan wins; otherwise the
    ``REPRO_FAULTS`` environment variable is parsed (fresh each call,
    so spawned workers and subprocesses see it too). Returns ``None``
    when neither is set.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return parse_plan(raw)


def parse_spec(raw: str) -> FaultSpec:
    """Parse one injector from the spec mini-language.

    Grammar: ``<kind>[@<key>][:opt=val[,opt=val...]]`` where kind is
    one of :data:`KINDS`, ``<key>`` is the integer task key (``at``),
    and options are ``nth``, ``attempts`` (``+``-separated ints),
    ``p`` (probability), ``seed``, ``seconds``, and ``code``::

        raise@2                  # raise every time point 2 runs
        raise@2:attempts=1       # transient: only the first attempt
        hang@4:seconds=60        # sleep 60s at point 4
        exit@3:code=1            # kill the worker at point 3
        corrupt@0                # substitute the CORRUPTED sentinel
        raise:p=0.25,seed=7      # seeded 25% coin on every point
    """
    head, _, opts = raw.strip().partition(":")
    kind, _, at_raw = head.partition("@")
    kwargs: dict = {}
    if at_raw:
        try:
            kwargs["at"] = int(at_raw)
        except ValueError:
            raise ConfigurationError(
                f"bad fault key {at_raw!r} in {raw!r} (expected an integer)"
            ) from None
    try:
        for part in filter(None, opts.split(",")):
            name, _, value = part.partition("=")
            if name == "nth":
                kwargs["nth"] = int(value)
            elif name == "attempts":
                kwargs["attempts"] = frozenset(
                    int(a) for a in value.split("+")
                )
            elif name == "p":
                kwargs["probability"] = float(value)
            elif name == "seed":
                kwargs["seed"] = int(value)
            elif name == "seconds":
                kwargs["seconds"] = float(value)
            elif name == "code":
                kwargs["exit_code"] = int(value)
            else:
                raise ConfigurationError(
                    f"unknown fault option {name!r} in {raw!r}"
                )
    except ValueError:
        raise ConfigurationError(f"bad fault option value in {raw!r}") from None
    return FaultSpec(kind=kind.strip(), **kwargs)


def parse_plan(raw: str) -> FaultPlan:
    """Parse a ``;``-separated list of specs into a :class:`FaultPlan`."""
    specs = [parse_spec(part) for part in raw.split(";") if part.strip()]
    return FaultPlan(specs=specs)


def transient(spec: FaultSpec) -> FaultSpec:
    """Copy of ``spec`` restricted to the first attempt only.

    A transient fault fires once per point and then lets the retry
    succeed — the canonical "retry recovers it" test shape.
    """
    return replace(spec, attempts=frozenset({1}))
