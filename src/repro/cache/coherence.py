"""Coherency-invalidation modelling (paper footnote 1 and §1).

The paper motivates wide associativity for multiprocessor level-two
caches partly with this observation:

    "A miss to a set-associative cache can fill any empty block frame
    in the set, whereas a miss to a direct-mapped cache can fill only
    a single frame. Increasing associativity increases the chance that
    an invalidated block frame will be quickly used again by making
    more empty frames available for reuse on a miss. [...] increasing
    associativity reduces the average number of empty cache block
    frames when coherency invalidations are frequent."

:class:`InvalidationInjector` models the coherency traffic of the
other processors as a stream of invalidations to random resident
blocks, interleaved with the local request stream;
:func:`run_with_invalidations` drives a replay and samples frame
utilization so the footnote's claim can be measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stream import PackedMissStream
from repro.errors import ConfigurationError


@dataclass
class CoherenceStats:
    """Counters and samples collected by the injector."""

    #: Invalidations attempted (one per injector firing).
    attempts: int = 0
    #: ... that found a resident block to invalidate in the L2.
    invalidations: int = 0
    #: ... whose block was also dropped from the L1 above.
    l1_invalidations: int = 0
    #: Periodic samples of the fraction of valid L2 frames.
    utilization_samples: List[float] = field(default_factory=list)

    @property
    def mean_utilization(self) -> float:
        """Average fraction of valid frames across samples."""
        if not self.utilization_samples:
            return 0.0
        return sum(self.utilization_samples) / len(self.utilization_samples)


class InvalidationInjector:
    """Injects invalidations to random resident L2 blocks.

    Args:
        l2: The cache receiving invalidations.
        l1: Optional level-one cache above it; resident copies there
            are dropped too (as a coherency invalidation would).
        rate: Expected invalidations per local L2 request.
        seed: Determinism.
    """

    def __init__(
        self,
        l2: SetAssociativeCache,
        l1: Optional[DirectMappedCache] = None,
        rate: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        self.l2 = l2
        self.l1 = l1
        self.rate = rate
        self.stats = CoherenceStats()
        self._rng = random.Random(seed)

    def tick(self) -> None:
        """Called once per local request; fires with probability ``rate``."""
        if self.rate and self._rng.random() < self.rate:
            self.invalidate_random_block()

    def invalidate_random_block(self, retries: int = 8) -> bool:
        """Invalidate one uniformly chosen resident block, if any.

        Samples a random (set, frame); empty picks are retried a few
        times (a miss models an invalidation for a block this cache no
        longer holds — common in real coherency traffic).
        """
        self.stats.attempts += 1
        l2 = self.l2
        for _ in range(retries):
            set_index = self._rng.randrange(l2.num_sets)
            cache_set = l2.sets[set_index]
            valid = cache_set.valid_frames()
            if not valid:
                continue
            frame = valid[self._rng.randrange(len(valid))]
            tag = cache_set.tag_at(frame)
            address = l2.mapper.rebuild(set_index, tag)
            # Through the cache, so an attached engine hears of it too.
            l2.invalidate(address)
            self.stats.invalidations += 1
            if self.l1 is not None:
                for offset in range(0, l2.block_size, self.l1.block_size):
                    if self.l1.invalidate(address + offset) is not None:
                        self.stats.l1_invalidations += 1
            return True
        return False

    def sample_utilization(self) -> float:
        """Record and return the current fraction of valid L2 frames."""
        total = self.l2.num_sets * self.l2.associativity
        valid = sum(len(s.valid_frames()) for s in self.l2.sets)
        utilization = valid / total
        self.stats.utilization_samples.append(utilization)
        return utilization


def run_with_invalidations(
    stream: PackedMissStream,
    l2: SetAssociativeCache,
    injector: InvalidationInjector,
    sample_every: int = 2000,
) -> CoherenceStats:
    """Replay ``stream`` into ``l2`` with invalidations interleaved.

    Utilization is sampled every ``sample_every`` stream positions
    (skipping the initial cold-fill period would bias against the
    direct-mapped case, so samples start once a quarter of the stream
    has been replayed). Each flush holds one position, as
    ``len(stream)`` counts it.
    """
    if sample_every <= 0:
        raise ConfigurationError("sample_every must be positive")
    warmup = len(stream) // 4
    position = 0
    for index, (codes, addresses) in enumerate(stream.segments()):
        if index:
            l2.invalidate_all()
            position += 1
        for code, address in zip(codes, addresses):
            if code == 0:
                l2.read_in(address)
            else:
                l2.write_back(address)
            injector.tick()
            if position >= warmup and position % sample_every == 0:
                injector.sample_utilization()
            position += 1
    return injector.stats
