"""Replacement policies for the set-associative cache.

The paper replaces the least-recently-used entry of a set. FIFO and
Random are provided for the replacement-policy ablation (they also
demonstrate that the MRU lookup scheme's usefulness is tied to the
recency state a true-LRU policy maintains).

A policy chooses a *victim frame*. All policies fill invalid (empty)
frames first — the property footnote 1 of the paper relies on.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Optional, Type

from repro.cache.set_state import CacheSet
from repro.errors import ConfigurationError


class ReplacementPolicy(ABC):
    """Chooses which frame of a set to fill on a miss.

    Args:
        fill: How to choose among *invalid* frames while a set is
            filling up: ``"random"`` (default) places incoming blocks
            in a uniformly random empty frame, matching the
            position-agnostic per-set bookkeeping of classic
            trace-driven simulators (and making frame position
            uncorrelated with recency, as the paper's naive-scheme
            averages assume); ``"first"`` models hardware with a
            priority encoder over valid bits.
        seed: Seed for the random fill choice.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self, fill: str = "random", seed: int = 0) -> None:
        if fill not in ("first", "random"):
            raise ConfigurationError(
                f"fill must be 'first' or 'random', got {fill!r}"
            )
        self.fill = fill
        self.seed = seed
        self._fill_rng = random.Random(seed)

    def reset(self) -> None:
        """Restore the policy to its initial (cold) state.

        Called at cold-start flush boundaries so that a flushed cache is
        indistinguishable from a freshly constructed one — the property
        that lets the parallel sweep runner replay each cold-start
        segment in a fresh cache and merge counters bit-identically.
        """
        self._fill_rng = random.Random(self.seed)

    def victim(self, cache_set: CacheSet) -> int:
        """Frame to fill: an invalid frame if any, else :meth:`evict_from`.

        A full set goes straight to :meth:`evict_from` without listing
        its frames; only a filling set draws from the fill RNG.
        """
        if cache_set.is_full():
            return self.evict_from(cache_set)
        if self.fill == "first":
            return cache_set.first_invalid_frame()
        empties = cache_set.invalid_frames()
        return empties[self._fill_rng.randrange(len(empties))]

    @abstractmethod
    def evict_from(self, cache_set: CacheSet) -> int:
        """Choose a victim among valid frames of a *full* set."""


class LruReplacement(ReplacementPolicy):
    """Evict the least-recently-used entry (the paper's policy)."""

    name = "lru"

    def evict_from(self, cache_set: CacheSet) -> int:
        return cache_set.lru_frame()


class FifoReplacement(ReplacementPolicy):
    """Evict the entry that has been resident longest."""

    name = "fifo"

    def evict_from(self, cache_set: CacheSet) -> int:
        return cache_set.oldest_frame()


class RandomReplacement(ReplacementPolicy):
    """Evict a uniformly random valid frame (seeded for reproducibility)."""

    name = "random"

    def __init__(self, fill: str = "random", seed: int = 0) -> None:
        super().__init__(fill=fill, seed=seed)
        self._rng = random.Random(seed ^ 0x5DEECE66)

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self.seed ^ 0x5DEECE66)

    def evict_from(self, cache_set: CacheSet) -> int:
        candidates = cache_set.valid_frames()
        return candidates[self._rng.randrange(len(candidates))]


_POLICIES: Dict[str, Type[ReplacementPolicy]] = {
    LruReplacement.name: LruReplacement,
    FifoReplacement.name: FifoReplacement,
    RandomReplacement.name: RandomReplacement,
}


def make_replacement(
    name: str, seed: Optional[int] = None, fill: str = "random"
) -> ReplacementPolicy:
    """Build a policy by name (``lru``/``fifo``/``random``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(fill=fill, seed=seed if seed is not None else 0)
