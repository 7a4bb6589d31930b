"""Lookup-scheme library: the paper's primary contribution.

This package implements the four implementations of set-associative
lookup studied in the paper, as pure probe-counting models over explicit
per-set state:

- :class:`~repro.core.traditional.TraditionalLookup` — parallel probe of
  all ``a`` tags (always one probe).
- :class:`~repro.core.naive.NaiveLookup` — serial scan in frame order.
- :class:`~repro.core.mru.MRULookup` — serial scan from most- to
  least-recently used, with optional reduced MRU lists.
- :class:`~repro.core.partial.PartialCompareLookup` — two-step partial
  tag compare with optional subsets and tag transformations.

It also provides the tag transformations of Section 2.2
(:mod:`repro.core.transforms`) and the closed-form probe models of
Table 1 (:mod:`repro.core.analysis`).
"""

from repro.core.analysis import (
    default_subsets,
    expected_mru_hit_probes,
    expected_mru_miss_probes,
    expected_naive_hit_probes,
    expected_naive_miss_probes,
    expected_partial_hit_probes,
    expected_partial_miss_probes,
    expected_total_probes,
    optimal_partial_width,
    optimal_subsets,
)
from repro.core.banked import (
    BankedLookup,
    expected_banked_hit_probes,
    expected_banked_miss_probes,
)
from repro.core.engine import (
    EngineChannel,
    FusedProbeEngine,
    MruDistanceStats,
)
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.probes import LookupOutcome, SetView
from repro.core.schemes import LookupScheme
from repro.core.traditional import TraditionalLookup
from repro.core.transforms import (
    BitSwapTransform,
    IdentityTransform,
    ImprovedXorTransform,
    TagTransform,
    XorLowTransform,
    make_transform,
)

__all__ = [
    "BankedLookup",
    "BitSwapTransform",
    "EngineChannel",
    "FusedProbeEngine",
    "IdentityTransform",
    "ImprovedXorTransform",
    "LookupOutcome",
    "LookupScheme",
    "MRULookup",
    "MruDistanceStats",
    "NaiveLookup",
    "PartialCompareLookup",
    "SetView",
    "TagTransform",
    "TraditionalLookup",
    "XorLowTransform",
    "default_subsets",
    "expected_banked_hit_probes",
    "expected_banked_miss_probes",
    "expected_mru_hit_probes",
    "expected_mru_miss_probes",
    "expected_naive_hit_probes",
    "expected_naive_miss_probes",
    "expected_partial_hit_probes",
    "expected_partial_miss_probes",
    "expected_total_probes",
    "make_transform",
    "optimal_partial_width",
    "optimal_subsets",
]
