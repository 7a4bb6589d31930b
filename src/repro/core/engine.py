"""Fused probe-accounting engine: all schemes from one set of facts.

The legacy instrumentation path (:mod:`repro.cache.observers`) runs one
full :meth:`~repro.core.schemes.LookupScheme.lookup` per attached
observer per access, each over a freshly allocated
:class:`~repro.core.probes.SetView` snapshot — ``O(observers × a)``
Python work plus several object allocations on every L2 request. But
the schemes' probe counts are all pure functions of a handful of
*shared lookup facts* about the pre-update set state:

- the hit frame (ground truth, one O(1) tag-index lookup);
- the hit frame's MRU distance (one C-level ``list.index``);
- per partial-compare configuration, the partial-match pattern up to
  the hit frame.

:class:`FusedProbeEngine` computes those facts exactly once per access,
accumulates them into *histograms* (hits by frame, hits by MRU
distance), and derives every scheme's probe totals analytically when
:meth:`~FusedProbeEngine.finalize` folds the histograms out:

======================  ================================================
scheme                  probes per access
======================  ================================================
traditional             ``1`` (hit or miss)
naive                   hit at frame ``f`` → ``f + 1``; miss → ``a``
mru (list length m)     hit at distance ``d ≤ m`` → ``1 + d``; hit in
                        the unlisted tail → ``1 + m + tail_rank + 1``;
                        miss → ``1 + a``
partial (s subsets)     one step-one probe per subset reached, plus one
                        step-two probe per partial match scanned (none
                        when the partial width equals the tag width)
======================  ================================================

Only the partial-compare schemes (whose probes depend on the full set
contents) and reduced-MRU tail hits need any per-access arithmetic at
all; everything else is a histogram increment. ``observe`` itself is a
closure rebuilt whenever the channel roster changes, with every counter
and histogram captured in its cells — no per-access attribute chasing
or bound-method allocation. The engine reads live set state (zero-copy:
the cache passes its internal tag and MRU lists by reference) and
allocates nothing per access. It is required to be bit-identical to the
legacy observer path — the randomized differential test in
``tests/core/test_engine_differential.py`` enforces that, and the
legacy path remains the reference implementation.

The engine models exact instances of the four paper schemes only;
account any other scheme (a subclass, or e.g.
:class:`~repro.core.banked.BankedLookup`) through a
:class:`~repro.cache.observers.ProbeObserver`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.probes import ProbeAccumulator
from repro.core.schemes import LookupScheme
from repro.core.traditional import TraditionalLookup
from repro.errors import ConfigurationError

#: Channel kinds (how finalize derives the accumulator).
_TRADITIONAL = 0
_NAIVE = 1
_MRU = 2
_PARTIAL = 3

#: Indices into the engine's shared counter list.
_READIN_HITS = 0
_READIN_MISSES = 1
_WB_HITS = 2
_WB_MISSES = 3
_UPDATES = 4


class EngineChannel:
    """One accounted scheme: a label, a scheme, and its accumulator.

    ``accumulator`` triggers a (cheap, idempotent) engine
    :meth:`~FusedProbeEngine.finalize` so reads are always current.
    """

    __slots__ = (
        "label", "scheme", "writeback_optimization", "kind",
        "list_length", "consult", "tail_hit_probes", "tail_wb_probes",
        "group", "_engine", "_accumulator",
    )

    def __init__(
        self,
        engine: "FusedProbeEngine",
        label: str,
        scheme: LookupScheme,
        writeback_optimization: bool,
        kind: int,
    ) -> None:
        self.label = label
        self.scheme = scheme
        self.writeback_optimization = writeback_optimization
        self.kind = kind
        self.list_length = 0
        self.consult = 0
        # Probes spent on hits past a reduced MRU list (accumulated per
        # access: they depend on which frames the listed head names).
        self.tail_hit_probes = 0
        self.tail_wb_probes = 0
        self.group: Optional["_PartialGroup"] = None
        self._engine = engine
        self._accumulator = ProbeAccumulator()

    @property
    def accumulator(self) -> ProbeAccumulator:
        """Up-to-date probe totals (finalizes the engine on read)."""
        self._engine.finalize()
        return self._accumulator

    def __repr__(self) -> str:
        return f"EngineChannel(label={self.label!r}, scheme={self.scheme!r})"


class MruDistanceStats:
    """Engine-side MRU hit-distance histogram (Figure 5, right).

    Field-compatible with
    :class:`~repro.cache.observers.MruDistanceObserver`: ``counts``,
    ``hits``, ``accesses``, ``updates``, :meth:`distribution` and
    :attr:`update_fraction` carry the same meanings, so result assembly
    code can consume either.
    """

    def __init__(self, associativity: int) -> None:
        self.associativity = associativity
        self.counts: Dict[int, int] = {}
        self.hits = 0
        self.accesses = 0
        self.updates = 0
        self.label = "mru-distance"

    @property
    def update_fraction(self) -> float:
        """``u``: fraction of accesses that rewrite the MRU list."""
        if self.accesses == 0:
            return 0.0
        return self.updates / self.accesses

    def distribution(self) -> List[float]:
        """``f_i`` for ``i = 1..a``: P(hit at MRU distance i | hit)."""
        if self.hits == 0:
            return [0.0] * self.associativity
        return [
            self.counts.get(i, 0) / self.hits
            for i in range(1, self.associativity + 1)
        ]


class _PartialGroup:
    """All channels sharing one partial-compare configuration.

    Aliased labels (the runner attaches the same
    :class:`~repro.core.partial.PartialCompareLookup` instance under
    both ``partial`` and ``partial/<transform>/t<width>``) share a
    single probe computation per access; the running probe totals live
    here and are folded into each channel at finalize.
    """

    __slots__ = (
        "scheme", "channels", "subsets", "shifts", "full_width",
        "tag_mask", "field_mask", "transform", "default_slicing",
        "needs_wb_lookup", "hit_probes", "miss_probes", "wb_probes",
    )

    def __init__(self, scheme: PartialCompareLookup) -> None:
        self.scheme = scheme
        self.channels: List[EngineChannel] = []
        self.subsets = scheme.subsets
        # Bit offset of the field each in-subset comparator position
        # reads under default slicing.
        self.shifts = tuple(
            position * scheme.partial_bits
            for position in range(scheme.subset_size)
        )
        self.full_width = scheme._full_width
        self.tag_mask = scheme._tag_mask
        self.field_mask = scheme._field_mask
        self.transform = scheme.transform
        self.default_slicing = scheme._default_slicing
        self.needs_wb_lookup = False
        self.hit_probes = 0
        self.miss_probes = 0
        self.wb_probes = 0

    def outcome(
        self, tags: List[Optional[int]], tag: int, frame: Optional[int]
    ) -> int:
        """Probes this configuration spends on one lookup.

        Mirrors :meth:`PartialCompareLookup.lookup` exactly: one
        step-one probe per subset reached, one step-two probe per
        scanned partial match (unless the partial width covers the full
        tag), stopping at the true match — which is the ground-truth
        ``frame``, since step two compares complete tag values.
        """
        tag_mask = self.tag_mask
        masked = tag & tag_mask
        shifts = self.shifts
        full_width = self.full_width
        probes = 0
        position = 0
        if self.default_slicing:
            # Fast path: the comparator at position p reads field p of
            # the transformed tag, so the compare is a shift-and-mask
            # over the (memoized) transform table.
            apply = self.transform.apply
            cache_get = self.transform._apply_cache.get
            incoming = cache_get(masked)
            if incoming is None:
                incoming = apply(masked)
            field_mask = self.field_mask
            for _ in range(self.subsets):
                probes += 1
                for shift in shifts:
                    stored = tags[position]
                    if stored is not None:
                        stored &= tag_mask
                        transformed = cache_get(stored)
                        if transformed is None:
                            transformed = apply(stored)
                        if not ((transformed ^ incoming) >> shift) & field_mask:
                            if full_width:
                                if position == frame:
                                    return probes
                            else:
                                probes += 1
                                if position == frame:
                                    return probes
                    position += 1
            return probes
        compare_slice = self.transform.compare_slice
        subset_size = len(shifts)
        for _ in range(self.subsets):
            probes += 1
            for pos in range(subset_size):
                stored = tags[position]
                if stored is not None and (
                    compare_slice(stored & tag_mask, pos)
                    == compare_slice(masked, pos)
                ):
                    if full_width:
                        if position == frame:
                            return probes
                    else:
                        probes += 1
                        if position == frame:
                            return probes
                position += 1
        return probes


class FusedProbeEngine:
    """Single-pass probe accounting for many schemes at once.

    Attach to a :class:`~repro.cache.set_associative.SetAssociativeCache`
    via :meth:`~repro.cache.set_associative.SetAssociativeCache.attach_engine`;
    the cache then calls :meth:`observe` once per access with zero-copy
    references to the pre-update set state and the ground-truth hit
    frame it computed anyway. Read results through the channels'
    ``accumulator`` (auto-finalizing) or call :meth:`finalize` after
    the replay.

    Engines hold closures and are not picklable; ship plain results
    across process boundaries instead, as the sweep workers of
    :class:`~repro.experiments.runner.ParallelSweepRunner` do with
    each point's :class:`~repro.experiments.runner.ConfigResult`.

    Args:
        associativity: Set size ``a`` of the instrumented cache.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        self.associativity = associativity
        #: Channels in attach order, keyed by label.
        self.channels: Dict[str, EngineChannel] = {}
        # Shared-fact counters (see the _READIN_HITS.._UPDATES indices)
        # and histograms over pre-update state: read-in hits by frame
        # index / by 0-based MRU rank, then write-back hits likewise
        # (folded out only for channels modelling un-optimized
        # write-backs).
        self._counts = [0, 0, 0, 0, 0]
        self._frame_hist = [0] * associativity
        self._dist_hist = [0] * associativity
        self._wb_frame_hist = [0] * associativity
        self._wb_dist_hist = [0] * associativity
        # Channel families.
        self._analytic: List[EngineChannel] = []
        self._mru_reduced: List[EngineChannel] = []
        self._partial: List[_PartialGroup] = []
        self._partial_by_scheme: Dict[int, _PartialGroup] = {}
        self._distances: List[MruDistanceStats] = []
        # Which facts observe() must compute.
        self._need_distance = False
        self._need_wb_facts = False
        self._track_updates = False
        # Counter values already published to a metrics registry, so
        # repeated publish_metrics calls only add the delta.
        self._published_counts = [0, 0, 0, 0, 0]
        self._rebuild_observe()

    def add_scheme(
        self,
        scheme: LookupScheme,
        writeback_optimization: bool = True,
        label: Optional[str] = None,
    ) -> EngineChannel:
        """Account for ``scheme``; returns the channel with its accumulator.

        The same scheme instance may be added under several labels; its
        per-access probe computation is shared.

        Raises:
            ConfigurationError: If ``scheme`` is not an exact instance
                of one of the four paper schemes (account it through a
                :class:`~repro.cache.observers.ProbeObserver` instead),
                or its associativity or label does not fit.
        """
        if scheme.associativity != self.associativity:
            raise ConfigurationError(
                f"scheme for associativity {scheme.associativity} attached "
                f"to an engine for associativity {self.associativity}"
            )
        if label is None:
            label = scheme.name
        if label in self.channels:
            raise ConfigurationError(f"channel label {label!r} already in use")
        kind = type(scheme)
        if kind is TraditionalLookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _TRADITIONAL
            )
            self._analytic.append(channel)
        elif kind is NaiveLookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _NAIVE
            )
            self._analytic.append(channel)
        elif kind is MRULookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _MRU
            )
            channel.list_length = scheme.list_length
            channel.consult = scheme.LIST_LOOKUP_PROBES
            self._analytic.append(channel)
            if scheme.list_length < self.associativity:
                self._mru_reduced.append(channel)
            self._need_distance = True
        elif kind is PartialCompareLookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _PARTIAL
            )
            group = self._partial_by_scheme.get(id(scheme))
            if group is None:
                group = _PartialGroup(scheme)
                self._partial.append(group)
                self._partial_by_scheme[id(scheme)] = group
            group.channels.append(channel)
            channel.group = group
            if not writeback_optimization:
                group.needs_wb_lookup = True
        else:
            raise ConfigurationError(
                f"the fused engine has no model for {kind.__name__}; "
                "account it through a ProbeObserver"
            )
        if not writeback_optimization:
            self._need_wb_facts = True
        self.channels[label] = channel
        self._rebuild_observe()
        return channel

    def add_mru_distance(self) -> MruDistanceStats:
        """Track the MRU hit-distance histogram; returns the stats object."""
        stats = MruDistanceStats(self.associativity)
        self._distances.append(stats)
        self._need_distance = True
        self._track_updates = True
        self._rebuild_observe()
        return stats

    def accumulator(self, label: str) -> ProbeAccumulator:
        """The accumulator of the channel registered under ``label``."""
        return self.channels[label].accumulator

    def _rebuild_observe(self) -> None:
        """Specialize ``observe`` for the current channel roster.

        The closure captures every counter, histogram, and channel
        family in its cells, so the per-access path does no ``self``
        attribute lookups and no bound-method allocation. Rebuilt on
        every roster change; the accounting state itself (lists and
        channel objects) is shared, so rebuilding mid-replay loses
        nothing.
        """
        counts = self._counts
        frame_hist = self._frame_hist
        dist_hist = self._dist_hist
        wb_frame_hist = self._wb_frame_hist
        wb_dist_hist = self._wb_dist_hist
        need_distance = self._need_distance
        need_wb_facts = self._need_wb_facts
        track_updates = self._track_updates
        mru_reduced = tuple(self._mru_reduced)
        partial_groups = tuple(self._partial)
        # The overwhelmingly common roster has exactly one partial
        # configuration; specialize away the group loop for it, and —
        # when it is the default single-subset, default-slicing,
        # reduced-width shape — inline the whole scan so the hot path
        # makes no call at all.
        single = partial_groups[0] if len(partial_groups) == 1 else None
        single_outcome = single.outcome if single is not None else None
        single_wb = single.needs_wb_lookup if single is not None else False
        fast_partial = (
            single is not None
            and single.default_slicing
            and single.subsets == 1
            and not single.full_width
        )
        if fast_partial:
            p_tag_mask = single.tag_mask
            p_field_mask = single.field_mask
            p_pairs = tuple(enumerate(single.shifts))
            p_apply = single.transform.apply
            p_cache_get = single.transform._apply_cache.get
        else:
            p_tag_mask = p_field_mask = 0
            p_pairs = ()
            p_apply = p_cache_get = None

        def observe(
            tags: List[Optional[int]],
            mru: List[int],
            tag: int,
            is_writeback: bool,
            frame: Optional[int],
        ) -> None:
            """Account one access against pre-update set state.

            ``tags`` and ``mru`` are read-only borrows of the set's
            live state; ``frame`` is the ground-truth hit frame
            (``None`` on a miss).
            """
            hit = frame is not None
            if track_updates and (not mru or tags[mru[0]] != tag):
                counts[_UPDATES] += 1
            distance = 0
            if is_writeback:
                if hit:
                    counts[_WB_HITS] += 1
                    if need_wb_facts:
                        wb_frame_hist[frame] += 1
                        if need_distance:
                            rank = mru.index(frame)
                            distance = rank + 1
                            wb_dist_hist[rank] += 1
                else:
                    counts[_WB_MISSES] += 1
            elif hit:
                counts[_READIN_HITS] += 1
                frame_hist[frame] += 1
                if need_distance:
                    rank = mru.index(frame)
                    distance = rank + 1
                    dist_hist[rank] += 1
            else:
                counts[_READIN_MISSES] += 1

            # Hits past a reduced MRU list: the probe count depends on
            # which frames the listed head names, so account per access.
            if distance and mru_reduced:
                for channel in mru_reduced:
                    m = channel.list_length
                    if distance <= m or (
                        is_writeback and channel.writeback_optimization
                    ):
                        continue
                    ahead = 0
                    for i in range(m):
                        if mru[i] < frame:
                            ahead += 1
                    probes = channel.consult + m + (frame - ahead) + 1
                    if is_writeback:
                        channel.tail_wb_probes += probes
                    else:
                        channel.tail_hit_probes += probes

            if fast_partial:
                if not is_writeback or single_wb:
                    # One subset, one step-one probe, then a step-two
                    # probe per partial match, stopping at the true hit
                    # frame (which always partial-matches).
                    masked = tag & p_tag_mask
                    incoming = p_cache_get(masked)
                    if incoming is None:
                        incoming = p_apply(masked)
                    probes = 1
                    for position, shift in p_pairs:
                        stored = tags[position]
                        if stored is not None:
                            stored &= p_tag_mask
                            transformed = p_cache_get(stored)
                            if transformed is None:
                                transformed = p_apply(stored)
                            if not (
                                ((transformed ^ incoming) >> shift)
                                & p_field_mask
                            ):
                                probes += 1
                                if position == frame:
                                    break
                    if is_writeback:
                        single.wb_probes += probes
                    elif hit:
                        single.hit_probes += probes
                    else:
                        single.miss_probes += probes
            elif single is not None:
                if is_writeback:
                    if single_wb:
                        single.wb_probes += single_outcome(tags, tag, frame)
                elif hit:
                    single.hit_probes += single_outcome(tags, tag, frame)
                else:
                    single.miss_probes += single_outcome(tags, tag, frame)
            elif partial_groups:
                for group in partial_groups:
                    if is_writeback:
                        if group.needs_wb_lookup:
                            group.wb_probes += group.outcome(tags, tag, frame)
                    elif hit:
                        group.hit_probes += group.outcome(tags, tag, frame)
                    else:
                        group.miss_probes += group.outcome(tags, tag, frame)

        #: The engine's only ``observe`` is this per-roster closure; it
        #: is a plain function attribute, so calls skip bound-method
        #: allocation too.
        self.observe = observe

    def finalize(self) -> None:
        """Fold the shared-fact histograms into every accumulator.

        Idempotent and cheap (``O(channels × a)``); safe to call at any
        point during a replay.
        """
        a = self.associativity
        counts = self._counts
        readin_hits = counts[_READIN_HITS]
        readin_misses = counts[_READIN_MISSES]
        wb_hits = counts[_WB_HITS]
        wb_misses = counts[_WB_MISSES]
        writebacks = wb_hits + wb_misses
        frame_hist = self._frame_hist
        dist_hist = self._dist_hist

        for channel in self._analytic:
            acc = channel._accumulator
            acc.hit_accesses = readin_hits
            acc.miss_accesses = readin_misses
            acc.writeback_accesses = writebacks
            kind = channel.kind
            if kind == _TRADITIONAL:
                acc.hit_probes = readin_hits
                acc.miss_probes = readin_misses
                wb_probes = writebacks
            elif kind == _NAIVE:
                acc.hit_probes = sum(
                    (f + 1) * n for f, n in enumerate(frame_hist) if n
                )
                acc.miss_probes = a * readin_misses
                wb_probes = (
                    sum(
                        (f + 1) * n
                        for f, n in enumerate(self._wb_frame_hist)
                        if n
                    )
                    + a * wb_misses
                )
            else:  # _MRU
                consult = channel.consult
                m = channel.list_length
                acc.hit_probes = (
                    sum(
                        (consult + d) * dist_hist[d - 1]
                        for d in range(1, m + 1)
                        if dist_hist[d - 1]
                    )
                    + channel.tail_hit_probes
                )
                acc.miss_probes = (consult + a) * readin_misses
                wb_probes = (
                    sum(
                        (consult + d) * self._wb_dist_hist[d - 1]
                        for d in range(1, m + 1)
                        if self._wb_dist_hist[d - 1]
                    )
                    + channel.tail_wb_probes
                    + (consult + a) * wb_misses
                )
            acc.writeback_probes = (
                0 if channel.writeback_optimization else wb_probes
            )

        for group in self._partial:
            for channel in group.channels:
                acc = channel._accumulator
                acc.hit_accesses = readin_hits
                acc.hit_probes = group.hit_probes
                acc.miss_accesses = readin_misses
                acc.miss_probes = group.miss_probes
                acc.writeback_accesses = writebacks
                acc.writeback_probes = (
                    0 if channel.writeback_optimization else group.wb_probes
                )

        accesses = readin_hits + readin_misses + writebacks
        for stats in self._distances:
            stats.accesses = accesses
            stats.updates = counts[_UPDATES]
            stats.hits = readin_hits
            stats.counts = {
                d: dist_hist[d - 1]
                for d in range(1, a + 1)
                if dist_hist[d - 1]
            }

    def publish_metrics(self, registry=None) -> None:
        """Publish accounting totals as ``engine.*`` metrics, by delta.

        Called once per replay, after :meth:`finalize` — never from the
        per-access path. Publishes the shared-fact counters
        (``engine.accesses``, ``engine.readin_hits``,
        ``engine.readin_misses``, ``engine.writeback_hits``,
        ``engine.writeback_misses``, ``engine.mru_updates``) plus an
        ``engine.channels`` gauge. Only the *delta* since the previous
        publish is added, so calling again mid-session never
        double-counts; the counters are deterministic functions of the
        replayed stream, so snapshots merged across workers are
        bit-identical to a serial run's.

        Args:
            registry: Target :class:`~repro.obs.metrics.MetricsRegistry`;
                defaults to the process-global registry.
        """
        from repro.obs.metrics import get_metrics

        if registry is None:
            registry = get_metrics()
        counts = self._counts
        published = self._published_counts
        deltas = [now - before for now, before in zip(counts, published)]
        names = (
            "engine.readin_hits",
            "engine.readin_misses",
            "engine.writeback_hits",
            "engine.writeback_misses",
            "engine.mru_updates",
        )
        for name, delta in zip(names, deltas):
            if delta:
                registry.counter(name).inc(delta)
        access_delta = sum(deltas[:_UPDATES])
        if access_delta:
            registry.counter("engine.accesses").inc(access_delta)
        registry.gauge("engine.channels").set(len(self.channels))
        self._published_counts = list(counts)

    def __repr__(self) -> str:
        return (
            f"FusedProbeEngine(associativity={self.associativity}, "
            f"channels={list(self.channels)!r})"
        )
