"""Cache-simulator substrate: the system the paper evaluates on.

Provides address mapping, replacement policies, a direct-mapped
write-back level-one cache, a set-associative level-two cache with
multi-scheme probe instrumentation, and the two-level hierarchy with
the paper's read-in / write-back protocol and write-back optimization.
"""

from repro.cache.address import AddressMapper
from repro.cache.associative_l1 import AssociativeL1Cache
from repro.cache.coherence import (
    CoherenceStats,
    InvalidationInjector,
    run_with_invalidations,
)
from repro.cache.direct_mapped import DirectMappedCache, MemoryRequest, RequestKind
from repro.cache.hash_rehash import HashRehashCache
from repro.cache.hierarchy import (
    InclusionStats,
    TwoLevelHierarchy,
    cached_miss_stream,
    cached_miss_streams,
    capture_miss_stream,
    capture_miss_streams,
    clear_miss_stream_cache,
    replay_miss_stream,
)
from repro.cache.stream import PackedMissStream
from repro.cache.stack import StackSimulator
from repro.cache.multiprocessor import (
    MultiprocessorStats,
    MultiprocessorSystem,
    node_workloads,
)
from repro.cache.observers import MruDistanceObserver, ProbeObserver
from repro.cache.replacement import (
    FifoReplacement,
    LruReplacement,
    RandomReplacement,
    ReplacementPolicy,
    make_replacement,
)
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.set_state import CacheSet
from repro.cache.stats import CacheStats, HierarchyStats

__all__ = [
    "AddressMapper",
    "AssociativeL1Cache",
    "CacheSet",
    "CacheStats",
    "CoherenceStats",
    "DirectMappedCache",
    "HashRehashCache",
    "InvalidationInjector",
    "FifoReplacement",
    "HierarchyStats",
    "InclusionStats",
    "LruReplacement",
    "MemoryRequest",
    "MruDistanceObserver",
    "MultiprocessorStats",
    "MultiprocessorSystem",
    "PackedMissStream",
    "ProbeObserver",
    "RandomReplacement",
    "ReplacementPolicy",
    "RequestKind",
    "SetAssociativeCache",
    "StackSimulator",
    "TwoLevelHierarchy",
    "cached_miss_stream",
    "cached_miss_streams",
    "capture_miss_stream",
    "capture_miss_streams",
    "clear_miss_stream_cache",
    "make_replacement",
    "node_workloads",
    "replay_miss_stream",
    "run_with_invalidations",
]
