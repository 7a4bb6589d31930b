"""MRU serial implementation of set-associativity (paper §2.1).

Stores per-set ordering information (the same list a true-LRU
replacement policy maintains) and probes the stored tags from most- to
least-recently used. Reading the ordering information costs one probe,
so a hit at MRU distance ``i`` (1-based) costs ``1 + i`` probes and a
miss costs ``1 + a``.

The paper also evaluates *reduced* MRU lists (Figure 5): only the first
``m < a`` entries of the ordering are kept; a lookup searches those in
order and then the rest of the set in an arbitrary (here: frame) order.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.probes import LookupOutcome, SetView
from repro.core.schemes import LookupScheme
from repro.errors import ConfigurationError


class MRULookup(LookupScheme):
    """Serial scan ordered by the per-set MRU list.

    Args:
        associativity: Set size ``a``.
        list_length: Number of MRU list entries kept per set. ``None``
            (the default) keeps the full list of ``a`` entries; smaller
            values model the reduced lists of Figure 5.
    """

    name = "mru"

    #: Probes charged for consulting the MRU ordering information
    #: before any tag probe (paper: "the MRU list is uselessly
    #: consulted" on a miss, costing one extra probe).
    LIST_LOOKUP_PROBES = 1

    def __init__(self, associativity: int, list_length: Optional[int] = None) -> None:
        super().__init__(associativity)
        if list_length is None:
            list_length = associativity
        if not 1 <= list_length <= associativity:
            raise ConfigurationError(
                f"MRU list length must be in [1, {associativity}], got {list_length}"
            )
        self.list_length = list_length

    def search_order(self, view: SetView) -> List[int]:
        """Frame indices in the order this scheme probes them.

        The first ``list_length`` entries of the MRU order are searched
        first; the remaining frames follow in frame order (the paper's
        "arbitrary order" for the tail of a reduced list).
        """
        listed = list(view.mru_order[: self.list_length])
        seen = set(listed)
        tail = [frame for frame in range(view.associativity) if frame not in seen]
        return listed + tail

    def lookup(self, view: SetView, tag: int) -> LookupOutcome:
        self._check_view(view)
        for index, frame in enumerate(self.search_order(view)):
            stored = view.tags[frame]
            if stored is not None and stored == tag:
                probes = self.LIST_LOOKUP_PROBES + index + 1
                return LookupOutcome(hit=True, frame=frame, probes=probes)
        probes = self.LIST_LOOKUP_PROBES + self.associativity
        return LookupOutcome(hit=False, frame=None, probes=probes)

    def __repr__(self) -> str:
        return (
            f"MRULookup(associativity={self.associativity}, "
            f"list_length={self.list_length})"
        )
