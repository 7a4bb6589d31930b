"""Banked serial implementation: intermediate tag-memory widths.

The paper notes that "implementations using tag widths of ``b x t``
(1 < b < a) are possible and can result in intermediate costs and
performance, but are not considered here". This module considers
them: a ``b``-wide tag memory reads and compares ``b`` stored tags per
probe, scanning the set in frame order. With ``b = 1`` it degenerates
to the naive scheme; with ``b = a`` to the traditional implementation.

Expected probes (uniform hit position): ``(ceil(a/b) + 1) / 2`` on a
hit (roughly), ``ceil(a/b)`` on a miss — interpolating between the
naive and traditional rows of Table 1.
"""

from __future__ import annotations

from repro.core.probes import LookupOutcome, SetView
from repro.core.schemes import LookupScheme
from repro.errors import ConfigurationError


class BankedLookup(LookupScheme):
    """Serial scan reading ``banks`` tags per probe.

    Args:
        associativity: Set size ``a``.
        banks: Tags compared per probe, ``1 <= banks <= a``; must
            divide the associativity (banked memories are built from
            equal slices).
    """

    name = "banked"

    def __init__(self, associativity: int, banks: int = 2) -> None:
        super().__init__(associativity)
        if banks < 1 or associativity % banks:
            raise ConfigurationError(
                f"banks ({banks}) must divide the associativity "
                f"({associativity})"
            )
        self.banks = banks

    @property
    def probes_per_scan(self) -> int:
        """Probes needed to examine the whole set (the miss cost)."""
        return self.associativity // self.banks

    def lookup(self, view: SetView, tag: int) -> LookupOutcome:
        self._check_view(view)
        for probe in range(self.probes_per_scan):
            start = probe * self.banks
            for frame in range(start, start + self.banks):
                stored = view.tags[frame]
                if stored is not None and stored == tag:
                    return LookupOutcome(hit=True, frame=frame, probes=probe + 1)
        return LookupOutcome(hit=False, frame=None, probes=self.probes_per_scan)

    def __repr__(self) -> str:
        return (
            f"BankedLookup(associativity={self.associativity}, "
            f"banks={self.banks})"
        )


def expected_banked_hit_probes(associativity: int, banks: int) -> float:
    """Expected hit probes for uniformly distributed hit positions."""
    scheme = BankedLookup(associativity, banks)  # validates arguments
    scans = scheme.probes_per_scan
    return (scans + 1) / 2


def expected_banked_miss_probes(associativity: int, banks: int) -> float:
    """Miss cost: one probe per bank group."""
    return float(BankedLookup(associativity, banks).probes_per_scan)
