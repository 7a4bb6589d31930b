"""Hit/miss counters for caches and the two-level hierarchy.

Terminology follows the paper (taken from [Przy88b]):

- *global miss ratio* — fraction of processor requests that miss in
  both the level-one and level-two caches;
- *local miss ratio* (of the level-two cache) — fraction of read-ins
  and write-backs from the level-one cache that miss in the level-two
  cache;
- *fraction write-back* — fraction of requests from the level-one
  cache that are write-backs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters for a single cache level."""

    readin_hits: int = 0
    readin_misses: int = 0
    writeback_hits: int = 0
    writeback_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def readins(self) -> int:
        """Read-in requests serviced."""
        return self.readin_hits + self.readin_misses

    @property
    def writebacks(self) -> int:
        """Write-back requests serviced."""
        return self.writeback_hits + self.writeback_misses

    @property
    def accesses(self) -> int:
        """All requests serviced."""
        return self.readins + self.writebacks

    @property
    def readin_miss_ratio(self) -> float:
        """Miss ratio over read-in requests only."""
        if self.readins == 0:
            return 0.0
        return self.readin_misses / self.readins

    @property
    def local_miss_ratio(self) -> float:
        """Paper's local miss ratio: misses over read-ins *and* write-backs."""
        if self.accesses == 0:
            return 0.0
        return (self.readin_misses + self.writeback_misses) / self.accesses

    @property
    def fraction_writebacks(self) -> float:
        """Fraction of requests from the level above that are write-backs."""
        if self.accesses == 0:
            return 0.0
        return self.writebacks / self.accesses


@dataclass
class HierarchyStats:
    """Counters spanning both levels of the hierarchy."""

    processor_references: int = 0
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)

    @property
    def l1_miss_ratio(self) -> float:
        """Fraction of processor references that miss in the level-one cache."""
        if self.processor_references == 0:
            return 0.0
        return self.l1.readin_misses / self.processor_references

    @property
    def global_miss_ratio(self) -> float:
        """Fraction of processor references that miss in both caches."""
        if self.processor_references == 0:
            return 0.0
        return self.l2.readin_misses / self.processor_references
