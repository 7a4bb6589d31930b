"""ATUM-like synthetic multiprogrammed workload (substitute for the
paper's traces; see DESIGN.md §4).

The paper drove its simulations with one very large trace built by
concatenating 23 ATUM traces of a multiprogrammed VAX operating system
(~350,000 references each, >8 million total), with cache flushes
inserted between them so each starts cold.

:class:`AtumWorkload` mirrors that structure: ``segments`` independent
segments, each a multiprogrammed mix of user processes plus an OS
kernel pseudo-process, round-robin scheduled with exponentially
distributed scheduling quanta, a FLUSH sentinel between segments. The
per-process reference model lives in :mod:`repro.trace.process_model`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.trace.process_model import ProcessModel, ProcessParameters
from repro.trace.reference import AccessKind, Reference

#: Most pairs generated in one call to
#: :meth:`~repro.trace.process_model.ProcessModel.references`: large
#: enough to amortize the call, small enough that a long scheduling
#: quantum never sits in memory whole.
PAIR_BATCH = 1024

_FLUSH_PAIR = (AccessKind.FLUSH, 0)


@dataclass(frozen=True)
class SegmentParameters:
    """Shape of one trace segment (one "ATUM trace" equivalent)."""

    #: Number of user processes multiprogrammed in the segment.
    processes: int = 6
    #: Mean references between context switches.
    switch_interval: int = 20_000
    #: Probability a scheduling quantum runs the OS pseudo-process.
    os_quantum_fraction: float = 0.12
    #: Parameters of the user-process reference model.
    user: ProcessParameters = ProcessParameters()
    #: Parameters of the OS pseudo-process (bigger code footprint,
    #: flatter data locality, more pointer chasing — OS activity is
    #: what made ATUM traces notoriously hard on caches).
    os: ProcessParameters = ProcessParameters(
        instruction_fraction=0.58,
        branch_probability=0.20,
        loop_branch_fraction=0.78,
        routines=48,
        routine_theta=1.3,
        data_theta=1.55,
        new_block_probability=0.003,
        chase_fraction=0.08,
        chase_blocks=300,
    )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range knobs."""
        if self.processes <= 0:
            raise ConfigurationError("at least one process per segment")
        if self.switch_interval <= 0:
            raise ConfigurationError("switch_interval must be positive")
        if not 0.0 <= self.os_quantum_fraction <= 1.0:
            raise ConfigurationError("os_quantum_fraction outside [0, 1]")
        self.user.validate()
        self.os.validate()


class AtumWorkload:
    """Deterministic multiprogrammed synthetic trace.

    Args:
        segments: Number of concatenated cold-start segments (paper: 23).
        references_per_segment: References per segment (paper: ~350,000).
        seed: Master seed; every derived stream is seeded from it.
        params: Per-segment shape.

    Iterating the workload yields :class:`Reference` objects with a
    FLUSH sentinel between segments (and none before the first or after
    the last); :meth:`pairs` yields the same trace as ``(kind,
    address)`` pairs, and :meth:`batches` as the lists of pairs the
    generator builds.
    """

    def __init__(
        self,
        segments: int = 23,
        references_per_segment: int = 350_000,
        seed: int = 1989,
        params: SegmentParameters = SegmentParameters(),
        cold_start: bool = True,
    ) -> None:
        if segments <= 0:
            raise ConfigurationError("segments must be positive")
        if references_per_segment <= 0:
            raise ConfigurationError("references_per_segment must be positive")
        params.validate()
        self.segments = segments
        self.references_per_segment = references_per_segment
        self.seed = seed
        self.params = params
        #: When False, no FLUSH sentinels are emitted between segments
        #: — the paper's "warmer" variant (caches carry state across
        #: segment boundaries; miss ratios shrink, orderings persist).
        self.cold_start = cold_start

    def __len__(self) -> int:
        """Total reference count, excluding FLUSH sentinels."""
        return self.segments * self.references_per_segment

    def cache_key(self) -> tuple:
        """Hashable identity of the generated reference stream.

        Two workloads with equal keys generate identical traces, so
        captured miss streams can be content-addressed by this key plus
        the L1 geometry (see
        :func:`~repro.cache.hierarchy.cached_miss_stream`).
        """
        return (
            self.segments,
            self.references_per_segment,
            self.seed,
            self.cold_start,
            self.params,
        )

    def batches(self) -> Iterator[List[Tuple[AccessKind, int]]]:
        """The trace as lists of at most :data:`PAIR_BATCH` ``(kind,
        address)`` pairs, with a one-pair ``[(AccessKind.FLUSH, 0)]``
        batch between cold-start segments.

        These are the lists the generator builds anyway, so reading
        them costs no per-pair step: one trace pass feeds each batch to
        every L1 it captures
        (:func:`~repro.cache.hierarchy.capture_miss_streams`). Each
        batch is a new list.
        """
        for segment in range(self.segments):
            if segment > 0 and self.cold_start:
                yield [_FLUSH_PAIR]
            yield from self.segment_batches(segment)

    def pairs(self) -> Iterator[Tuple[AccessKind, int]]:
        """The trace as ``(kind, address)`` pairs, with
        ``(AccessKind.FLUSH, 0)`` between cold-start segments: the
        pairs of :meth:`batches`, one at a time."""
        for batch in self.batches():
            yield from batch

    def __iter__(self) -> Iterator[Reference]:
        for kind, address in self.pairs():
            yield Reference(kind, address)

    def segment_batches(
        self, segment: int
    ) -> Iterator[List[Tuple[AccessKind, int]]]:
        """One segment's pairs (no FLUSH sentinel), in lists of at most
        :data:`PAIR_BATCH`.

        Each scheduling quantum is generated in batches rather than
        whole (quanta run to tens of thousands of references), which
        keeps the pairs in flight small.
        """
        if not 0 <= segment < self.segments:
            raise ConfigurationError(
                f"segment {segment} out of range [0, {self.segments})"
            )
        params = self.params
        scheduler = random.Random((self.seed * 1_000_003) ^ segment)
        # Pids recycle across segments: like the paper's 23 traces, all
        # segments share one 32-bit virtual space (both caches are
        # flushed at segment boundaries, so no stale blocks leak), but
        # each segment reseeds the process models, capturing a
        # different process population.
        pid_base = 1
        users = [
            ProcessModel(pid_base + i, seed=self.seed ^ (segment << 8), params=params.user)
            for i in range(params.processes)
        ]
        # The kernel keeps one layout across segments (the OS is the
        # same OS in every ATUM snapshot); only its transient state
        # restarts. User populations reseed per segment.
        kernel = ProcessModel(
            pid_base + params.processes, seed=self.seed, params=params.os
        )

        produced = 0
        total = self.references_per_segment
        while produced < total:
            if scheduler.random() < params.os_quantum_fraction:
                process = kernel
                quantum = max(1, int(scheduler.expovariate(1.0) * params.switch_interval * 0.3))
            else:
                process = users[scheduler.randrange(len(users))]
                quantum = max(1, int(scheduler.expovariate(1.0) * params.switch_interval))
            quantum = min(quantum, total - produced)
            produced += quantum
            while quantum > PAIR_BATCH:
                yield process.references(PAIR_BATCH)
                quantum -= PAIR_BATCH
            yield process.references(quantum)

    def scaled(self, fraction: float) -> "AtumWorkload":
        """A shorter workload with the same shape (for fast benchmarks).

        Keeps all segments (so cold-start effects keep their relative
        weight) but scales each segment's length.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        refs = max(1, int(self.references_per_segment * fraction))
        return AtumWorkload(
            segments=self.segments,
            references_per_segment=refs,
            seed=self.seed,
            params=self.params,
            cold_start=self.cold_start,
        )

    def with_params(self, **changes) -> "AtumWorkload":
        """Copy of the workload with segment parameters replaced."""
        return AtumWorkload(
            segments=self.segments,
            references_per_segment=self.references_per_segment,
            seed=self.seed,
            params=replace(self.params, **changes),
            cold_start=self.cold_start,
        )

    def warmed(self) -> "AtumWorkload":
        """Copy with cold-start flushes removed (the paper's "warmer"
        variant)."""
        return AtumWorkload(
            segments=self.segments,
            references_per_segment=self.references_per_segment,
            seed=self.seed,
            params=self.params,
            cold_start=False,
        )


def kind_mix(workload: AtumWorkload, sample: int = 20_000) -> dict:
    """Fractions of instruction/load/store references in a sample prefix."""
    counts = {AccessKind.INSTRUCTION: 0, AccessKind.LOAD: 0, AccessKind.STORE: 0}
    taken = 0
    for kind, _ in workload.pairs():
        if kind is AccessKind.FLUSH:
            continue
        counts[kind] += 1
        taken += 1
        if taken >= sample:
            break
    total = max(1, taken)
    return {kind: count / total for kind, count in counts.items()}
