"""Naive serial implementation of set-associativity (Figure 1b).

Probes the stored tags of the set one at a time in frame order until a
match is found (hit) or the frames are exhausted (miss). Uses a single
``t``-bit comparator and a ``t``-bit-wide tag memory, like a
direct-mapped cache, but averages ``(a-1)/2 + 1`` probes on a hit and
``a`` probes on a miss.
"""

from __future__ import annotations

from repro.core.probes import LookupOutcome, SetView
from repro.core.schemes import LookupScheme


class NaiveLookup(LookupScheme):
    """Serial scan of the set in block-frame order."""

    name = "naive"

    def lookup(self, view: SetView, tag: int) -> LookupOutcome:
        self._check_view(view)
        for probes, stored in enumerate(view.tags, start=1):
            if stored is not None and stored == tag:
                return LookupOutcome(hit=True, frame=probes - 1, probes=probes)
        return LookupOutcome(hit=False, frame=None, probes=self.associativity)
