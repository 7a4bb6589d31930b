"""Fused probe-accounting engine: all schemes from one set of facts.

The legacy instrumentation path (:mod:`repro.cache.observers`) runs one
full :meth:`~repro.core.schemes.LookupScheme.lookup` per attached
observer per access, each over a freshly allocated
:class:`~repro.core.probes.SetView` snapshot — ``O(observers × a)``
Python work plus several object allocations on every L2 request. But
the schemes' probe counts are all pure functions of a handful of
*shared lookup facts* about the pre-update set state, which the cache
computes anyway and hands over with each access:

- the set index and the hit frame (ground truth, one O(1) tag-index
  lookup);
- the hit frame's MRU rank (one C-level ``list.index``, which the
  cache's MRU touch reuses);
- on a miss, the victim frame the fill will take.

:class:`FusedProbeEngine` accumulates those facts into *histograms*
(hits by frame, hits by MRU rank) and derives every scheme's probe
totals analytically when :meth:`~FusedProbeEngine.finalize` folds the
histograms out:

======================  ================================================
scheme                  probes per access
======================  ================================================
traditional             ``1`` (hit or miss)
naive                   hit at frame ``f`` → ``f + 1``; miss → ``a``
mru (list length m)     hit at distance ``d ≤ m`` → ``1 + d``; hit in
                        the unlisted tail → ``1 + m + tail_rank + 1``;
                        miss → ``1 + a``
partial (s subsets)     step-one probes (hit at frame ``f`` →
                        ``f // (a/s) + 1``; miss → ``s``) plus the
                        number of matching comparator fields up to the
                        hit frame, or in the whole set on a miss (none
                        when the partial width equals the tag width)
======================  ================================================

The step-two probes of the partial compare are the one fact that
depends on the full set contents, and the engine finds them the way
the hardware does, word-parallel: one int per set packs, for every
partial-compare configuration, a ``k + 1``-bit chunk per frame holding
the ``k``-bit field that frame's comparator reads under an empty-frame
flag bit. One XOR with the incoming tag's *spread word* (its
comparator field at every frame, memoized per tag) and one zero-chunk
test leave a bit for each valid frame whose field matches, in every
configuration at once. A hit's own frame always matches and is
counted at finalize; a masked popcount per configuration counts the
other matches, and runs only when there is one. A miss writes the
incoming chunks over the victim's.

``observe`` itself is a closure built when the engine is attached,
with every counter, histogram, packed word and mask captured in its
cells — no per-access attribute chasing or bound-method allocation. It
is required to be bit-identical to the legacy observer path — the
randomized differential test in ``tests/core/test_engine_differential.py``
enforces that, and the legacy path remains the reference
implementation.

The engine models exact instances of the four paper schemes only;
account any other scheme (a subclass, or e.g.
:class:`~repro.core.banked.BankedLookup`) through a
:class:`~repro.cache.observers.ProbeObserver`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

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

#: Indices into a partial group's ``step_two`` totals.
_STEP_TWO_HITS = 0
_STEP_TWO_MISSES = 1
_STEP_TWO_WBS = 2


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
    """MRU hit-distance histogram (Figure 5, right): ``counts`` by
    1-based distance, read-in ``hits``, ``accesses`` and MRU-list
    ``updates``.

    The fused engine fills it in bulk;
    :class:`~repro.cache.observers.MruDistanceObserver` extends it to
    fill it one access at a time, so result assembly reads either.
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
    single probe computation per access. ``step_two`` holds the
    running step-two probe totals of read-in hits, read-in misses and
    write-backs, leaving out each hit's probe of its own frame:
    finalize adds those and the step-one probes from the shared
    counters and frame histograms, and folds the totals into each
    channel.
    """

    __slots__ = (
        "scheme", "channels", "subsets", "subset_size", "full_width",
        "needs_wb_lookup", "step_two",
    )

    def __init__(self, scheme: PartialCompareLookup) -> None:
        self.scheme = scheme
        self.channels: List[EngineChannel] = []
        self.subsets = scheme.subsets
        self.subset_size = scheme.subset_size
        # At full width step one compares whole tags: no step two.
        self.full_width = scheme._full_width
        self.needs_wb_lookup = False
        self.step_two = [0, 0, 0]

    def spreader(self, copies: Sequence[int]) -> Callable[[int], int]:
        """A function placing the comparator fields of a tag in a word.

        The field in-subset position ``p`` reads of ``tag`` — the value
        of ``transform.compare_slice(tag & tag_mask, p)`` — is
        multiplied by ``copies[p]``, whose set bits mark where it goes.
        Under default slicing that is one transform and shifts.
        """
        scheme = self.scheme
        tag_mask = scheme._tag_mask
        transform = scheme.transform
        if scheme._default_slicing:
            apply = transform.apply
            field_mask = scheme._field_mask
            shifted = tuple(
                (p * scheme.partial_bits, copy) for p, copy in enumerate(copies)
            )

            def spread(tag: int) -> int:
                stored = apply(tag & tag_mask)
                word = 0
                for shift, copy in shifted:
                    word |= (stored >> shift & field_mask) * copy
                return word

            return spread
        compare_slice = transform.compare_slice
        positioned = tuple(enumerate(copies))

        def spread_sliced(tag: int) -> int:
            masked = tag & tag_mask
            word = 0
            for position, copy in positioned:
                word |= compare_slice(masked, position) * copy
            return word

        return spread_sliced

    def step_one(self, frame_hist: List[int]) -> int:
        """Step-one probes of the hits in ``frame_hist``: one per subset
        reached (a miss reaches all ``s``)."""
        size = self.subset_size
        return sum(
            (frame // size + 1) * n for frame, n in enumerate(frame_hist) if n
        )


class FusedProbeEngine:
    """Single-pass probe accounting for many schemes at once.

    Register schemes with :meth:`add_scheme` (and the MRU distance
    histogram with :meth:`add_mru_distance`), then attach the engine to
    one :class:`~repro.cache.set_associative.SetAssociativeCache` via
    :meth:`~repro.cache.set_associative.SetAssociativeCache.attach_engine`,
    which fixes the roster and builds the packed comparator words from
    the sets' current tags. The cache then calls :meth:`observe` once
    per access with the shared facts, and :meth:`invalidate` /
    :meth:`invalidate_all` whenever frames empty. Read results through
    the channels' ``accumulator`` (auto-finalizing) or call
    :meth:`finalize` after the replay.

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
        # (kept only when some channel models un-optimized
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
        self._need_wb_facts = False
        self._track_updates = False
        # Packed comparator words, one per set (empty when no
        # configuration needs step-two scoring), and the masks that
        # empty a frame's chunks; built by bind().
        self._bound = False
        self._words: List[int] = []
        self._empty = 0
        self._frame_bits: List[int] = []
        self._keep: List[int] = []
        # Counter values already published to a metrics registry, so
        # repeated publish_metrics calls only add the delta.
        self._published_counts = [0, 0, 0, 0, 0]

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
                its associativity or label does not fit, or the engine
                is already attached to a cache.
        """
        self._check_unbound()
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
        return channel

    def add_mru_distance(self) -> MruDistanceStats:
        """Track the MRU hit-distance histogram; returns the stats object.

        Raises:
            ConfigurationError: If the engine is already attached.
        """
        self._check_unbound()
        stats = MruDistanceStats(self.associativity)
        self._distances.append(stats)
        self._track_updates = True
        return stats

    def accumulator(self, label: str) -> ProbeAccumulator:
        """The accumulator of the channel registered under ``label``."""
        return self.channels[label].accumulator

    def _check_unbound(self) -> None:
        if self._bound:
            raise ConfigurationError(
                "the engine is attached to a cache; register every "
                "scheme before attaching it"
            )

    def bind(self, sets: Sequence) -> None:
        """Start accounting for the cache whose sets are ``sets``.

        Called once, by
        :meth:`~repro.cache.set_associative.SetAssociativeCache.attach_engine`:
        fixes the roster, lays out the packed comparator words, builds
        each set's word from its current tags, and builds
        :meth:`observe`.

        Raises:
            ConfigurationError: If the engine is already attached.
        """
        self._check_unbound()
        self._bound = True
        a = self.associativity
        # Every configuration that needs step-two scoring takes a
        # (k + 1)-bit chunk per frame: the frame's comparator field,
        # then the empty flag. Configurations sit side by side.
        scored = [group for group in self._partial if not group.full_width]
        spreaders = []
        layout = []
        empty = low = 0
        frame_bits = [0] * a
        ahead_of = [0] * a
        offset = 0
        for group in scored:
            width = group.scheme.partial_bits
            size = group.subset_size
            # A field times copies[p] lands in the chunk of every frame
            # at subset position p (the chunks are wider than a field,
            # so the copies never carry into each other).
            copies = [0] * size
            ahead = []
            flags = 0
            for frame in range(a):
                ahead.append(flags)
                ahead_of[frame] |= flags
                flag = 1 << (offset + width)
                flags |= flag
                low |= (flag - 1) ^ ((1 << offset) - 1)
                frame_bits[frame] |= (flag << 1) - (1 << offset)
                copies[frame % size] |= 1 << offset
                offset += width + 1
            empty |= flags
            spreaders.append(group.spreader(copies))
            layout.append((group, tuple(ahead), flags))
        spreads: Dict[int, int] = {}

        def spread_of(tag: int) -> int:
            """``tag``'s comparator field at every frame (memoized)."""
            spread = 0
            for spreader in spreaders:
                spread |= spreader(tag)
            spreads[tag] = spread
            return spread

        words: List[int] = []
        if scored:
            for cache_set in sets:
                word = empty
                for frame in range(a):
                    stored = cache_set.tag_at(frame)
                    if stored is not None:
                        bits = frame_bits[frame]
                        word = word & ~bits | spread_of(stored) & bits
                words.append(word)
        self._words = words
        self._empty = empty
        self._frame_bits = frame_bits
        self._keep = [~bits for bits in frame_bits]

        counts = self._counts
        frame_hist = self._frame_hist
        dist_hist = self._dist_hist
        wb_frame_hist = self._wb_frame_hist
        wb_dist_hist = self._wb_dist_hist
        need_wb_facts = self._need_wb_facts
        track_updates = self._track_updates
        mru_reduced = tuple(self._mru_reduced)
        keep = tuple(self._keep)
        frame_bits = tuple(frame_bits)
        ahead_of = tuple(ahead_of)
        spread_get = spreads.get
        readin_scoring = tuple(
            (group.step_two, ahead, flags) for group, ahead, flags in layout
        )
        wb_scoring = tuple(
            (group.step_two, ahead, flags)
            for group, ahead, flags in layout
            if group.needs_wb_lookup
        )
        packed = bool(scored)

        def observe(
            index: int,
            mru: List[int],
            tag: int,
            is_writeback: bool,
            frame: Optional[int],
            rank: Optional[int],
            victim: Optional[int],
        ) -> None:
            """Account one access against pre-update set state.

            ``index`` is the set and ``mru`` a read-only borrow of its
            live recency list. On a hit, ``frame`` is the ground-truth
            hit frame and ``rank`` its 0-based MRU rank; on a miss both
            are ``None`` and ``victim`` is the frame the fill takes.
            """
            if frame is None:
                if track_updates:
                    counts[_UPDATES] += 1
                if is_writeback:
                    counts[_WB_MISSES] += 1
                    scoring = wb_scoring
                    slot = _STEP_TWO_WBS
                else:
                    counts[_READIN_MISSES] += 1
                    scoring = readin_scoring
                    slot = _STEP_TWO_MISSES
                if packed:
                    spread = spread_get(tag)
                    if spread is None:
                        spread = spread_of(tag)
                    word = words[index]
                    if scoring:
                        # One bit per valid frame whose field matches.
                        x = word ^ spread
                        zero = empty & ~(((x & low) + low) | x)
                        if zero:
                            for step_two, _, flags in scoring:
                                step_two[slot] += (zero & flags).bit_count()
                    words[index] = word & keep[victim] | spread & frame_bits[victim]
                return

            if track_updates and rank:
                counts[_UPDATES] += 1
            if is_writeback:
                counts[_WB_HITS] += 1
                if not need_wb_facts:
                    return
                wb_frame_hist[frame] += 1
                wb_dist_hist[rank] += 1
                scoring = wb_scoring
                slot = _STEP_TWO_WBS
            else:
                counts[_READIN_HITS] += 1
                frame_hist[frame] += 1
                dist_hist[rank] += 1
                scoring = readin_scoring
                slot = _STEP_TWO_HITS

            # Hits past a reduced MRU list: the probe count depends on
            # which frames the listed head names, so account per access.
            if mru_reduced:
                for channel in mru_reduced:
                    m = channel.list_length
                    if rank < m or (
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

            # Step two scans the partial matches up to the hit frame.
            # The hit frame always matches (finalize counts it); only
            # false matches ahead of it need counting here.
            if scoring:
                spread = spread_get(tag)
                if spread is None:
                    spread = spread_of(tag)
                x = words[index] ^ spread
                zero = ahead_of[frame] & ~(((x & low) + low) | x)
                if zero:
                    for step_two, ahead, _ in scoring:
                        step_two[slot] += (zero & ahead[frame]).bit_count()

        #: The engine's only ``observe`` is this closure; it is a plain
        #: function attribute, so calls skip bound-method allocation too.
        self.observe = observe

    def invalidate(self, index: int, frame: int) -> None:
        """Mark ``frame`` of set ``index`` empty (a dropped block)."""
        words = self._words
        if words:
            words[index] = (
                words[index] & self._keep[frame]
                | self._empty & self._frame_bits[frame]
            )

    def invalidate_all(self) -> None:
        """Mark every frame empty (the cold-start flush)."""
        words = self._words
        words[:] = [self._empty] * len(words)

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
            hit_probes, miss_probes, wb_probes = group.step_two
            if not group.full_width:
                # The step-two probe of each hit's own frame.
                hit_probes += readin_hits
                wb_probes += wb_hits
            hit_probes += group.step_one(frame_hist)
            miss_probes += group.subsets * readin_misses
            wb_probes += (
                group.step_one(self._wb_frame_hist) + group.subsets * wb_misses
            )
            for channel in group.channels:
                acc = channel._accumulator
                acc.hit_accesses = readin_hits
                acc.hit_probes = hit_probes
                acc.miss_accesses = readin_misses
                acc.miss_probes = miss_probes
                acc.writeback_accesses = writebacks
                acc.writeback_probes = (
                    0 if channel.writeback_optimization else wb_probes
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
