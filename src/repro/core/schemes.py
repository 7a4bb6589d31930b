"""Base class for set-associative lookup schemes.

A lookup scheme is a *pure* probe-counting model: given the state of a
set (a :class:`~repro.core.probes.SetView`) and an incoming tag, it
reports whether the access hits and how many probes the hardware would
spend discovering that. Schemes never mutate set state, which is what
lets the simulator evaluate many schemes in a single pass — they all
observe identical set contents because replacement (true LRU in the
paper) does not depend on the lookup implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.probes import LookupOutcome, SetView
from repro.errors import ConfigurationError


def require_power_of_two(value: int, what: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a power of two."""
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")


class LookupScheme(ABC):
    """One implementation of set-associative lookup (paper, Section 2)."""

    #: Scheme name; subclasses override.
    name: str = "abstract"

    def __init__(self, associativity: int) -> None:
        require_power_of_two(associativity, "associativity")
        self.associativity = associativity

    @abstractmethod
    def lookup(self, view: SetView, tag: int) -> LookupOutcome:
        """Count the probes needed to find ``tag`` in ``view``.

        Implementations must agree with ``view.find(tag)`` on the
        hit/miss outcome and the matching frame.
        """

    def _check_view(self, view: SetView) -> None:
        if view.associativity != self.associativity:
            raise ConfigurationError(
                f"{self.name} scheme built for associativity "
                f"{self.associativity} applied to a set of "
                f"{view.associativity} frames"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(associativity={self.associativity})"
