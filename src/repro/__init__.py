"""repro — reproduction of "Inexpensive Implementations of
Set-Associativity" (Kessler, Jooss, Lebeck, Hill; ISCA 1989).

The package is organized as:

- :mod:`repro.core` — the paper's contribution: traditional, naive,
  MRU, and partial-compare implementations of set-associative lookup,
  tag transformations, and the closed-form probe models of Table 1;
- :mod:`repro.cache` — the simulation substrate: direct-mapped L1,
  instrumented set-associative L2, and the two-level hierarchy;
- :mod:`repro.trace` — reference streams, trace I/O, and the synthetic
  ATUM-like multiprogrammed workload;
- :mod:`repro.hardware` — the Table 2 board-level cost/timing model;
- :mod:`repro.experiments` — configurations, runners, and the
  table/figure builders that regenerate the paper's evaluation;
- :mod:`repro.obs` — the observability layer: tracing spans, the
  metrics registry, run provenance manifests, structured logging, and
  live sweep progress (see ``docs/observability.md``).

Quickstart::

    from repro import (AtumWorkload, DirectMappedCache, SetAssociativeCache,
                       TwoLevelHierarchy, ProbeObserver, MRULookup)

    l1 = DirectMappedCache(16 * 1024, 16)
    l2 = SetAssociativeCache(256 * 1024, 32, associativity=4)
    l2.attach(ProbeObserver(MRULookup(4)))
    TwoLevelHierarchy(l1, l2).run(AtumWorkload(segments=2,
                                               references_per_segment=50_000))
"""

from repro.cache import (
    DirectMappedCache,
    MruDistanceObserver,
    ProbeObserver,
    SetAssociativeCache,
    TwoLevelHierarchy,
    capture_miss_stream,
    replay_miss_stream,
)
from repro.core import (
    FusedProbeEngine,
    LookupOutcome,
    LookupScheme,
    MRULookup,
    NaiveLookup,
    PartialCompareLookup,
    SetView,
    TraditionalLookup,
    make_transform,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    SimulationError,
    SweepPointError,
    SweepTimeoutError,
    TraceFormatError,
)
from repro.resilience import (
    FailurePolicy,
    PointFailure,
    RetryPolicy,
    SweepCheckpoint,
    SweepOutcome,
)
from repro.trace import AccessKind, AtumWorkload, Reference

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "AtumWorkload",
    "CheckpointError",
    "ConfigurationError",
    "DirectMappedCache",
    "FailurePolicy",
    "FusedProbeEngine",
    "LookupOutcome",
    "LookupScheme",
    "MRULookup",
    "MruDistanceObserver",
    "NaiveLookup",
    "PartialCompareLookup",
    "PointFailure",
    "ProbeObserver",
    "Reference",
    "ReproError",
    "RetryPolicy",
    "SetAssociativeCache",
    "SetView",
    "SimulationError",
    "SweepCheckpoint",
    "SweepOutcome",
    "SweepPointError",
    "SweepTimeoutError",
    "TraceFormatError",
    "TraditionalLookup",
    "TwoLevelHierarchy",
    "__version__",
    "capture_miss_stream",
    "make_transform",
    "replay_miss_stream",
]
