"""Micro-benchmarks: simulator throughput.

References/second through the L1 and requests/second through an
instrumented L2 — the numbers that determine how large a workload
scale is affordable.

The instrumented L2 benchmark accounts naive, MRU, and partial-compare
probes through the fused engine (the default instrumentation path; see
``docs/performance.md``); ``test_l2_replay_throughput_legacy_observers``
keeps the per-observer reference path on the same stream for
comparison. The three replay benchmarks run three timed rounds after
one warmup round; pytest-benchmark reports their median, IQR and
standard deviation. These benchmarks write nothing to ``results/``
and gate nothing. The end-to-end benchmark of paper-artifact builds
is ``benchmarks/pipeline/``.
"""

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import cached_miss_stream, replay_miss_stream
from repro.cache.observers import ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.core.engine import FusedProbeEngine
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def workload():
    return AtumWorkload(segments=1, references_per_segment=30_000, seed=21)


@pytest.fixture(scope="module")
def references(workload):
    return [r for r in workload if not r.is_flush]


@pytest.fixture(scope="module")
def stream(workload):
    miss_stream = cached_miss_stream(workload, 4096, 16)
    return miss_stream


def test_generation_throughput(benchmark):
    def generate():
        workload = AtumWorkload(
            segments=1, references_per_segment=10_000, seed=22
        )
        return sum(1 for _ in workload)

    count = benchmark(generate)
    assert count == 10_000


def test_l1_throughput(benchmark, references):
    def run():
        l1 = DirectMappedCache(16 * 1024, 16)
        for ref in references:
            l1.access(ref)
        return l1.stats.readin_misses

    misses = benchmark(run)
    assert misses > 0


def test_l2_replay_throughput_bare(benchmark, stream):
    def run():
        l2 = SetAssociativeCache(64 * 1024, 32, 4)
        replay_miss_stream(stream, l2)
        return l2.stats.accesses

    accesses = benchmark.pedantic(run, rounds=3, warmup_rounds=1, iterations=1)
    assert accesses == len(stream)


def test_l2_replay_throughput_instrumented(benchmark, stream):
    def run():
        l2 = SetAssociativeCache(64 * 1024, 32, 4)
        engine = FusedProbeEngine(4)
        engine.add_scheme(NaiveLookup(4))
        engine.add_scheme(MRULookup(4))
        engine.add_scheme(PartialCompareLookup(4, tag_bits=16))
        l2.attach_engine(engine)
        replay_miss_stream(stream, l2)
        engine.finalize()
        return l2.stats.accesses

    accesses = benchmark.pedantic(run, rounds=3, warmup_rounds=1, iterations=1)
    assert accesses == len(stream)


def test_l2_replay_throughput_legacy_observers(benchmark, stream):
    def run():
        l2 = SetAssociativeCache(64 * 1024, 32, 4)
        l2.attach_all(
            [
                ProbeObserver(NaiveLookup(4)),
                ProbeObserver(MRULookup(4)),
                ProbeObserver(PartialCompareLookup(4, tag_bits=16)),
            ]
        )
        replay_miss_stream(stream, l2)
        return l2.stats.accesses

    accesses = benchmark.pedantic(run, rounds=3, warmup_rounds=1, iterations=1)
    assert accesses == len(stream)
