"""Single-pass LRU stack-distance simulation (Mattson et al. [Matt70]).

The paper's footnote 4 defines the MRU hit distribution through LRU
stack distances: "each ``f_i`` is equal to the probability of a
reference to LRU distance ``i`` divided by the hit ratio, for a given
number of sets". This module implements that machinery directly: one
pass over an access stream yields, for a *fixed number of sets*, the
miss ratio of **every** associativity at once, plus the ``f_i``
distributions — because LRU caches of the same set count are
inclusive: a hit at stack depth ``d`` hits every associativity
``a >= d``.

It is both a fast design-space-exploration tool (one pass instead of
one simulation per associativity) and an independent oracle used by
the test suite to cross-validate the explicit
:class:`~repro.cache.set_associative.SetAssociativeCache`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.address import AddressMapper
from repro.cache.stream import PackedMissStream
from repro.errors import ConfigurationError


class StackSimulator:
    """Per-set LRU stack profiling for one cache geometry.

    Args:
        block_size: Cache block size in bytes (power of two).
        num_sets: Number of sets (power of two). Together these fix
            the geometry family; each associativity ``a`` corresponds
            to a capacity ``a * num_sets * block_size``.
        max_depth: Deepest stack distance tracked exactly; deeper
            re-references are lumped with cold misses (they miss in
            every associativity up to ``max_depth`` anyway).
    """

    def __init__(self, block_size: int, num_sets: int, max_depth: int = 64) -> None:
        if max_depth <= 0:
            raise ConfigurationError("max_depth must be positive")
        self.mapper = AddressMapper(block_size, num_sets)
        self.max_depth = max_depth
        self._stacks: Dict[int, List[int]] = {}
        #: histogram[d-1] counts accesses at stack distance d.
        self.distance_counts = [0] * max_depth
        #: First touches plus re-references deeper than max_depth.
        self.cold_or_deep = 0
        self.accesses = 0

    def access(self, address: int) -> Optional[int]:
        """Process one access; return its stack distance (or ``None``).

        ``None`` means a first touch or a re-reference deeper than
        ``max_depth`` — a miss at every tracked associativity.
        """
        index, tag = self.mapper.split(address)
        stack = self._stacks.get(index)
        if stack is None:
            stack = []
            self._stacks[index] = stack
        self.accesses += 1
        try:
            depth = stack.index(tag)
        except ValueError:
            depth = None
        if depth is None or depth >= self.max_depth:
            if depth is not None:
                del stack[depth]
            self.cold_or_deep += 1
            stack.insert(0, tag)
            if len(stack) > self.max_depth:
                stack.pop()
            return None
        del stack[depth]
        stack.insert(0, tag)
        self.distance_counts[depth] += 1
        return depth + 1

    def flush(self) -> None:
        """Cold-start: clear every per-set stack."""
        self._stacks.clear()

    def run(self, stream: PackedMissStream) -> "StackSimulator":
        """Process a captured L1 miss stream (read-ins and
        write-backs both promote, as in the real L2), cold-starting at
        each flush."""
        for index, (_, addresses) in enumerate(stream.segments()):
            if index:
                self.flush()
            for address in addresses:
                self.access(address)
        return self

    def misses(self, associativity: int) -> int:
        """Miss count an ``associativity``-way LRU cache would incur."""
        self._check_assoc(associativity)
        deep = sum(self.distance_counts[associativity:])
        return deep + self.cold_or_deep

    def hits(self, associativity: int) -> int:
        """Hit count for ``associativity``."""
        return self.accesses - self.misses(associativity)

    def miss_ratio(self, associativity: int) -> float:
        """Miss ratio for ``associativity``, over all accesses."""
        misses = self.misses(associativity)
        if self.accesses == 0:
            return 0.0
        return misses / self.accesses

    def miss_ratio_curve(self, associativities) -> Dict[int, float]:
        """Miss ratios for many associativities from the one profile."""
        return {a: self.miss_ratio(a) for a in associativities}

    def hit_distance_distribution(self, associativity: int) -> List[float]:
        """``f_i`` for ``i = 1..a``: P(stack distance i | hit) — the
        paper's footnote 4, and Figure 5 (right)."""
        self._check_assoc(associativity)
        total_hits = self.hits(associativity)
        if total_hits == 0:
            return [0.0] * associativity
        return [
            self.distance_counts[d] / total_hits
            for d in range(associativity)
        ]

    def expected_mru_hit_probes(self, associativity: int) -> float:
        """``1 + sum(i * f_i)`` — the MRU scheme's analytic hit cost
        on this access stream."""
        distribution = self.hit_distance_distribution(associativity)
        return 1.0 + sum(
            (i + 1) * p for i, p in enumerate(distribution)
        )

    def _check_assoc(self, associativity: int) -> None:
        if not 1 <= associativity <= self.max_depth:
            raise ConfigurationError(
                f"associativity must be in [1, {self.max_depth}], "
                f"got {associativity}"
            )

    def __repr__(self) -> str:
        return (
            f"StackSimulator(block_size={self.mapper.block_size}, "
            f"num_sets={self.mapper.num_sets}, max_depth={self.max_depth})"
        )
