"""Probe observers: per-scheme instrumentation attached to the L2 cache.

Because every lookup scheme leaves hit/miss behaviour and replacement
unchanged (the paper's schemes differ only in how the answer is
*discovered*), one simulated cache can drive many schemes at once. The
cache shows each observer the pre-update set state for every access;
the observer computes that scheme's probe count and accumulates it.

Write-back accounting follows the paper:

- with the write-back optimization (the default, used for Table 4 and
  Figures 4-6) a write-back costs zero probes for every scheme and is
  counted as a hit in the averages;
- without it (the "w/o optimization" curves of Figure 3) a write-back
  is looked up like any other access.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.direct_mapped import RequestKind
from repro.core.engine import MruDistanceStats
from repro.core.probes import ProbeAccumulator, SetView
from repro.core.schemes import LookupScheme


class ProbeObserver:
    """Accumulates probe counts for one lookup scheme.

    Args:
        scheme: The lookup scheme to account for.
        writeback_optimization: When True (default), write-backs cost
            zero probes; when False, the scheme performs a full lookup
            on write-backs too.
        label: Display name for reports; defaults to the scheme name.
    """

    def __init__(
        self,
        scheme: LookupScheme,
        writeback_optimization: bool = True,
        label: Optional[str] = None,
    ) -> None:
        self.scheme = scheme
        self.writeback_optimization = writeback_optimization
        self.label = label if label is not None else scheme.name
        self.accumulator = ProbeAccumulator()

    def observe(self, view: SetView, tag: int, kind: RequestKind) -> None:
        """Account for one L2 access against pre-update set state."""
        if kind is RequestKind.WRITE_BACK and self.writeback_optimization:
            self.accumulator.record_writeback(0)
            return
        outcome = self.scheme.lookup(view, tag)
        if kind is RequestKind.WRITE_BACK:
            self.accumulator.record_writeback(outcome.probes)
        elif outcome.hit:
            self.accumulator.record_hit(outcome.probes)
        else:
            self.accumulator.record_miss(outcome.probes)

    def __repr__(self) -> str:
        return f"ProbeObserver(label={self.label!r}, scheme={self.scheme!r})"


class MruDistanceObserver(MruDistanceStats):
    """Histogram of MRU hit distances on read-in hits (Figure 5, right),
    filled one access at a time.

    Distance ``i`` (1-based) means the hit was to the ``i``-th
    most-recently-used entry of the set; ``f_i`` is the histogram
    normalized over read-in hits. The counters,
    :attr:`update_fraction` and :meth:`distribution` are those of
    :class:`~repro.core.engine.MruDistanceStats`, which the fused
    engine fills instead.
    """

    def observe(self, view: SetView, tag: int, kind: RequestKind) -> None:
        """Record the MRU distance of read-in hits, and — over *all*
        accesses — whether the MRU ordering information must be
        rewritten (the ``u`` of Table 2's cycle expressions: an access
        to anything but the current MRU head changes the list).

        The hit distance is read straight off the MRU order (a hit's
        1-based rank in ``view.mru_order``): with a full MRU list that
        *is* the search position, so no per-access
        :class:`~repro.core.mru.MRULookup` rescan is needed — the fused
        engine hands the same rank over precomputed.
        """
        self.accesses += 1
        mru = view.mru_order
        tags = view.tags
        if not mru or tags[mru[0]] != tag:
            self.updates += 1
        if kind is not RequestKind.READ_IN:
            return
        for index, frame in enumerate(mru):
            if tags[frame] == tag:
                distance = index + 1
                self.hits += 1
                self.counts[distance] = self.counts.get(distance, 0) + 1
                return
