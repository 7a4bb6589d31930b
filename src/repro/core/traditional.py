"""Traditional parallel implementation of set-associativity.

Reads and compares all ``a`` stored tags of the set in parallel
(Figure 1a). Always exactly one probe, hit or miss — the baseline every
low-cost scheme is measured against.
"""

from __future__ import annotations

from repro.core.probes import LookupOutcome, SetView
from repro.core.schemes import LookupScheme


class TraditionalLookup(LookupScheme):
    """Parallel probe of every tag in the set: one probe, always."""

    name = "traditional"

    def lookup(self, view: SetView, tag: int) -> LookupOutcome:
        self._check_view(view)
        frame = view.find(tag)
        return LookupOutcome(hit=frame is not None, frame=frame, probes=1)
