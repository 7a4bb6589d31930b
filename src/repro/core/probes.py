"""Shared value types for lookup schemes.

A *probe* (paper, Section 2) is one comparison of the incoming tag
against the tag memory — without requiring that all compared bits come
from the same stored tag. Every lookup scheme consumes a
:class:`SetView` (the state of one cache set at the moment of an
access) and produces a :class:`LookupOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class SetView:
    """Immutable snapshot of one cache set, as seen by a lookup scheme.

    Attributes:
        tags: Stored tags indexed by block frame; ``None`` marks an
            invalid (empty) frame. Length equals the associativity.
        mru_order: Frame indices of the *valid* frames ordered from
            most- to least-recently used. Invalid frames are absent.
    """

    tags: Tuple[Optional[int], ...]
    mru_order: Tuple[int, ...]

    @property
    def associativity(self) -> int:
        """Number of block frames in the set."""
        return len(self.tags)

    def find(self, tag: int) -> Optional[int]:
        """Return the frame holding ``tag``, or ``None`` on a miss.

        At most one frame can hold a given tag; this is the ground-truth
        hit/miss answer every scheme must agree with.
        """
        for frame, stored in enumerate(self.tags):
            if stored is not None and stored == tag:
                return frame
        return None


@dataclass(frozen=True)
class LookupOutcome:
    """Result of one set lookup under a particular scheme.

    Attributes:
        hit: Whether the incoming tag was found.
        frame: Frame index of the matching tag (``None`` on a miss).
        probes: Number of probes the scheme spent on this lookup.
    """

    hit: bool
    frame: Optional[int]
    probes: int

    def __post_init__(self) -> None:
        if self.hit and self.frame is None:
            raise ValueError("a hit must identify the matching frame")
        if not self.hit and self.frame is not None:
            raise ValueError("a miss cannot identify a frame")
        if self.probes < 0:
            raise ValueError("probe counts are non-negative")


@dataclass
class ProbeAccumulator:
    """Running probe statistics for one scheme over a simulation.

    Separates read-in hits, read-in misses, and write-backs, mirroring
    the accounting of Table 4: with the write-back optimization,
    write-backs cost zero probes but are counted as hits in averages.
    """

    hit_accesses: int = 0
    hit_probes: int = 0
    miss_accesses: int = 0
    miss_probes: int = 0
    writeback_accesses: int = 0
    writeback_probes: int = 0

    def record_hit(self, probes: int) -> None:
        """Record a read-in hit costing ``probes`` probes."""
        self.hit_accesses += 1
        self.hit_probes += probes

    def record_miss(self, probes: int) -> None:
        """Record a read-in miss costing ``probes`` probes."""
        self.miss_accesses += 1
        self.miss_probes += probes

    def record_writeback(self, probes: int) -> None:
        """Record a write-back costing ``probes`` probes (0 if optimized)."""
        self.writeback_accesses += 1
        self.writeback_probes += probes

    @property
    def readin_accesses(self) -> int:
        """Read-in accesses (hits + misses), excluding write-backs."""
        return self.hit_accesses + self.miss_accesses

    @property
    def total_accesses(self) -> int:
        """All accesses, including write-backs."""
        return self.readin_accesses + self.writeback_accesses

    @property
    def probes_per_hit(self) -> float:
        """Average probes over read-in hits (Table 4 "Hits" column)."""
        if self.hit_accesses == 0:
            return 0.0
        return self.hit_probes / self.hit_accesses

    @property
    def probes_per_miss(self) -> float:
        """Average probes over read-in misses (Table 4 "Misses" column)."""
        if self.miss_accesses == 0:
            return 0.0
        return self.miss_probes / self.miss_accesses

    @property
    def probes_per_readin(self) -> float:
        """Average probes over read-ins only (hits and misses)."""
        if self.readin_accesses == 0:
            return 0.0
        return (self.hit_probes + self.miss_probes) / self.readin_accesses

    @property
    def probes_per_access(self) -> float:
        """Average probes over all accesses (Table 4 "Total" column).

        Write-backs are included in the denominator; under the
        write-back optimization they contribute zero probes, exactly as
        in the paper's averages.
        """
        if self.total_accesses == 0:
            return 0.0
        total = self.hit_probes + self.miss_probes + self.writeback_probes
        return total / self.total_accesses

    @property
    def hits_including_writebacks(self) -> float:
        """Average probes counting write-backs as hits (paper's accounting)."""
        denominator = self.hit_accesses + self.writeback_accesses
        if denominator == 0:
            return 0.0
        return (self.hit_probes + self.writeback_probes) / denominator
