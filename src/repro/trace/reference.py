"""Processor reference types.

A trace is any iterable of :class:`Reference` objects. A special
:data:`FLUSH` sentinel reference (kind :attr:`AccessKind.FLUSH`) marks
the cold-cache boundaries the paper inserted between its 23
concatenated ATUM traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AccessKind(Enum):
    """Kind of a processor reference."""

    INSTRUCTION = "ifetch"
    LOAD = "load"
    STORE = "store"
    #: Pseudo-reference: flush both cache levels (cold-start boundary).
    FLUSH = "flush"


@dataclass(frozen=True)
class Reference:
    """One processor reference: an access kind and a byte address."""

    kind: AccessKind
    address: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"addresses are non-negative, got {self.address}")

    def __iter__(self):
        """Unpack as ``(kind, address)``, like the pairs
        :meth:`~repro.trace.synthetic.AtumWorkload.pairs` yields."""
        return iter((self.kind, self.address))

    @property
    def is_flush(self) -> bool:
        """Whether this is the cold-start flush sentinel."""
        return self.kind is AccessKind.FLUSH


#: Sentinel inserted between trace segments to cold-start both caches.
FLUSH = Reference(AccessKind.FLUSH, 0)
