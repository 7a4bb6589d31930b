"""Simulation runners: one trace pass for the L1 geometries a caller
asks for, many instrumented L2 replays on top of each captured stream —
serially or one sweep point per worker.

Three layers keep the full Table 4 grid (8 configs x 3
associativities x all schemes) affordable:

- captured L1 miss streams are memoized process-wide, content-addressed
  by (workload identity, L1 geometry)
  (:func:`~repro.cache.hierarchy.cached_miss_streams`), so L2-only
  sweeps never re-simulate the L1, several L1s asked for together
  share one pass over the generated trace, and a parallel sweep
  captures all its L1s in that one pass, in the parent, before its
  workers fork;
- each replay uses the fused probe-accounting engine
  (:class:`~repro.core.engine.FusedProbeEngine`), computing every
  scheme's probes from one set of shared lookup facts per access;
- :class:`ParallelSweepRunner` runs each sweep point as one task on
  the fault-tolerant
  :class:`~repro.resilience.executor.ResilientPoolExecutor`,
  bit-identical to the serial path for a fixed workload seed.

Every runner is threaded through the :mod:`repro.obs` observability
layer — phase tracing spans, a mergeable metrics registry, live
per-point progress (``REPRO_PROGRESS=1``), and run provenance
manifests (pass ``obs_dir=``) — with all instrumentation off the
per-access hot path: workers publish one metric snapshot per point,
and the parent merges them with the same bit-identical discipline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import cached_miss_streams, replay_miss_stream
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.stream import PackedMissStream
from repro.core.analysis import default_subsets
from repro.core.engine import FusedProbeEngine
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.probes import ProbeAccumulator
from repro.core.traditional import TraditionalLookup
from repro.errors import ConfigurationError, SimulationError, SweepPointError
from repro.experiments.configs import (
    DEFAULT_TAG_BITS,
    CacheGeometry,
    default_workload,
    parse_geometry,
)
from repro.obs.log import log
from repro.obs.manifest import RunManifest, config_hash, describe_workload
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.progress import ProgressReporter
from repro.obs.spans import Tracer, get_tracer
from repro.resilience.checkpoint import SweepCheckpoint, point_signature
from repro.resilience.executor import ResilientPoolExecutor
from repro.resilience.policy import FailurePolicy, RetryPolicy, SweepOutcome
from repro.trace.synthetic import AtumWorkload


@dataclass(frozen=True)
class SchemeResult:
    """Probe averages for one scheme, in the paper's Table 4 accounting.

    ``hits`` counts write-backs as zero-probe hits (the write-back
    optimization); ``misses`` is the average over read-in misses;
    ``total`` is the average over all accesses. ``readin_hits`` is the
    average over read-in hits only (used by Figures 4-6).
    """

    label: str
    hits: float
    misses: float
    total: float
    readin_hits: float


@dataclass
class ConfigResult:
    """All measurements for one (L1, L2, associativity) configuration."""

    l1: CacheGeometry
    l2: CacheGeometry
    associativity: int
    global_miss_ratio: float
    local_miss_ratio: float
    fraction_writebacks: float
    l1_miss_ratio: float
    writeback_miss_ratio: float
    schemes: Dict[str, SchemeResult] = field(default_factory=dict)
    mru_distribution: List[float] = field(default_factory=list)
    #: ``u`` of Table 2: fraction of accesses rewriting the MRU list.
    mru_update_fraction: float = 0.0

    def best_total(self) -> str:
        """Label of the non-traditional scheme with the fewest total probes."""
        candidates = {
            label: result
            for label, result in self.schemes.items()
            if label != "traditional"
        }
        return min(candidates, key=lambda label: candidates[label].total)


def config_result_to_dict(result: ConfigResult) -> Dict[str, Any]:
    """A :class:`ConfigResult` as a plain JSON-representable dict.

    The inverse of :func:`config_result_from_dict`; Python's JSON
    float round-tripping is exact, so a result checkpointed through
    this pair is bit-identical to the original.
    """
    return asdict(result)


def config_result_from_dict(data: Dict[str, Any]) -> ConfigResult:
    """Rebuild a :class:`ConfigResult` written by
    :func:`config_result_to_dict` (e.g. from a sweep checkpoint)."""
    fields = dict(data)
    fields["l1"] = CacheGeometry(**fields["l1"])
    fields["l2"] = CacheGeometry(**fields["l2"])
    fields["schemes"] = {
        label: SchemeResult(**scheme)
        for label, scheme in fields["schemes"].items()
    }
    return ConfigResult(**fields)


def _scheme_plan(
    associativity: int,
    tag_bits: int,
    transforms: Sequence[str],
    mru_list_lengths: Sequence[int],
    extra_tag_bits: Sequence[int],
) -> List[Tuple[str, object]]:
    """Ordered (label, scheme) pairs for one instrumented replay.

    Aliased labels (``partial`` and ``partial/<first transform>/t<tag
    bits>``) share one scheme instance, so the fused engine computes
    their probes once per access.
    """
    plan: List[Tuple[str, object]] = [
        ("traditional", TraditionalLookup(associativity)),
        ("naive", NaiveLookup(associativity)),
        ("mru", MRULookup(associativity)),
    ]
    for length in mru_list_lengths:
        plan.append(
            (f"mru/m{length}", MRULookup(associativity, list_length=length))
        )
    widths = [tag_bits] + [b for b in extra_tag_bits if b != tag_bits]
    for width in widths:
        subsets = default_subsets(associativity, width)
        for transform in transforms:
            scheme = PartialCompareLookup(
                associativity,
                tag_bits=width,
                subsets=subsets,
                transform=transform,
            )
            if width == tag_bits and transform == transforms[0]:
                plan.append(("partial", scheme))
            plan.append((f"partial/{transform}/t{width}", scheme))
    return plan


def _instrument(
    cache: SetAssociativeCache,
    plan: Sequence[Tuple[str, object]],
    writeback_optimization: bool,
):
    """Attach a fused probe-accounting engine for ``plan`` to ``cache``.

    Returns ``(accumulators, distance)`` where ``accumulators`` maps
    labels to :class:`~repro.core.probes.ProbeAccumulator` and
    ``distance`` tracks the MRU hit-distance histogram.
    """
    accumulators: Dict[str, ProbeAccumulator] = {}
    engine = FusedProbeEngine(cache.associativity)
    for label, scheme in plan:
        channel = engine.add_scheme(
            scheme,
            writeback_optimization=writeback_optimization,
            label=label,
        )
        accumulators[label] = channel.accumulator
    distance = engine.add_mru_distance()
    cache.attach_engine(engine)
    return accumulators, distance


def _assemble_result(
    l1: CacheGeometry,
    l2: CacheGeometry,
    associativity: int,
    stats: CacheStats,
    processor_references: int,
    l1_miss_ratio: float,
    accumulators: Dict[str, ProbeAccumulator],
    distance,
) -> ConfigResult:
    """Fold raw counters into a :class:`ConfigResult`."""
    processor_refs = max(1, processor_references)
    result = ConfigResult(
        l1=l1,
        l2=l2,
        associativity=associativity,
        global_miss_ratio=stats.readin_misses / processor_refs,
        local_miss_ratio=stats.local_miss_ratio,
        fraction_writebacks=stats.fraction_writebacks,
        l1_miss_ratio=l1_miss_ratio,
        writeback_miss_ratio=(
            stats.writeback_misses / stats.writebacks
            if stats.writebacks
            else 0.0
        ),
        mru_distribution=distance.distribution(),
        mru_update_fraction=distance.update_fraction,
    )
    for label, acc in accumulators.items():
        result.schemes[label] = SchemeResult(
            label=label,
            hits=acc.hits_including_writebacks,
            misses=acc.probes_per_miss,
            total=acc.probes_per_access,
            readin_hits=acc.probes_per_hit,
        )
    return result


def _run_sweep_point(payload):
    """Worker: run one sweep point in an isolated runner.

    The resilient executor's unit of work — one point per task gives
    per-point retries, timeouts, and checkpointing. Returns
    ``(ConfigResult, metric_snapshot)``; the worker replays the miss
    stream it inherited from the parent's memo (on a platform without
    fork it captures it again from the shared workload seed), so
    results are bit-identical to a serial run.

    Spans go to the *process-global* tracer — inside a pool worker
    that is the per-task tracer the executor guard installs, so the
    point's ``l2_replay`` span ships back to the parent, which hangs
    it under its ``sweep`` span. Metrics stay per-point (the snapshot
    is part of the return value).
    """
    workload, point = payload
    runner = ExperimentRunner(
        workload, metrics=MetricsRegistry(), tracer=get_tracer()
    )
    result = runner.run(
        point.l1,
        point.l2,
        point.associativity,
        tag_bits=point.tag_bits,
        transforms=point.transforms,
        mru_list_lengths=point.mru_list_lengths,
        extra_tag_bits=point.extra_tag_bits,
        writeback_optimization=point.writeback_optimization,
    )
    return result, runner.metrics.snapshot()


def _validate_point_result(key, value) -> None:
    """Reject malformed worker payloads before they are accepted.

    The resilient executor runs this on every "successful" value; a
    worker that returns corrupt data (a fault injector, a partially
    written pickle, a hijacked return path) is charged a failed
    attempt instead of poisoning the sweep results. Anything but a
    ``(ConfigResult, dict)`` pair raises the typed error.
    """
    if not (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[0], ConfigResult)
        and isinstance(value[1], dict)
    ):
        raise SimulationError(
            f"worker returned a malformed result for point {key!r}: "
            f"{type(value).__name__}"
        )


class ExperimentRunner:
    """Runs instrumented two-level simulations with miss-stream reuse.

    Args:
        workload: Reference workload; defaults to
            :func:`~repro.experiments.configs.default_workload`.
        metrics: Target :class:`~repro.obs.metrics.MetricsRegistry` for
            ``engine.*`` and ``runner.*`` metrics; defaults to the
            process-global registry.
        tracer: Target :class:`~repro.obs.spans.Tracer` for phase
            spans; defaults to the process-global tracer.
        obs_dir: When set, every completed run rewrites a provenance
            ``manifest.json`` (covering all runs so far) and the span
            ``trace.jsonl`` in this directory — see
            :meth:`write_obs`.
    """

    def __init__(
        self,
        workload: Optional[AtumWorkload] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        obs_dir=None,
    ) -> None:
        self.workload = workload if workload is not None else default_workload()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self._results: Dict[tuple, ConfigResult] = {}
        self._run_log: List[Dict[str, Any]] = []

    def miss_stream(
        self, l1: CacheGeometry, *also: CacheGeometry
    ) -> PackedMissStream:
        """Captured L1 request stream for ``l1``.

        Content-addressed and memoized process-wide
        (:func:`~repro.cache.hierarchy.cached_miss_streams`), so every
        runner on the same workload shares one capture per L1 geometry.
        The geometries in ``also`` are captured too, in the same pass
        over the trace: a caller that reads several L1s names them all
        in one call and the trace is generated once.
        """
        geometries = [(g.capacity_bytes, g.block_size) for g in (l1, *also)]
        return cached_miss_streams(
            self.workload, geometries, tracer=self.tracer, metrics=self.metrics,
        )[0]

    def l1_miss_ratio(self, l1: CacheGeometry) -> float:
        """Read-in miss ratio of the L1 geometry over the workload."""
        return self.miss_stream(l1).readin_miss_ratio

    def run(
        self,
        l1: "CacheGeometry | str",
        l2: "CacheGeometry | str",
        associativity: int,
        tag_bits: int = DEFAULT_TAG_BITS,
        transforms: Sequence[str] = ("xor",),
        mru_list_lengths: Sequence[int] = (),
        extra_tag_bits: Sequence[int] = (),
        writeback_optimization: bool = True,
    ) -> ConfigResult:
        """Simulate one L2 configuration with every scheme attached.

        The result's ``schemes`` dict contains:

        - ``traditional``, ``naive``, ``mru``, and ``partial`` (the
          first transform in ``transforms``, at ``tag_bits``);
        - ``partial/<transform>`` for each requested transform;
        - ``partial/<transform>/t<bits>`` for each width in
          ``extra_tag_bits``;
        - ``mru/m<length>`` for each reduced MRU list length.
        """
        if isinstance(l1, str):
            l1 = parse_geometry(l1)
        if isinstance(l2, str):
            l2 = parse_geometry(l2)
        cache_key = (
            l1.label, l2.label, associativity, tag_bits,
            tuple(transforms), tuple(mru_list_lengths),
            tuple(extra_tag_bits), writeback_optimization,
        )
        cached = self._results.get(cache_key)
        if cached is not None:
            self.metrics.counter("runner.result_cache_hits").inc()
            return cached
        stream = self.miss_stream(l1)

        cache = SetAssociativeCache(
            l2.capacity_bytes, l2.block_size, associativity
        )
        plan = _scheme_plan(
            associativity, tag_bits, tuple(transforms),
            tuple(mru_list_lengths), tuple(extra_tag_bits),
        )
        accumulators, distance = _instrument(
            cache, plan, writeback_optimization
        )
        self.metrics.counter("runner.replays").inc()
        with self.tracer.span(
            "l2_replay",
            l1=l1.label, l2=l2.label, associativity=associativity,
        ):
            replay_miss_stream(stream, cache)
            cache.engine.finalize()
        cache.engine.publish_metrics(self.metrics)

        result = _assemble_result(
            l1, l2, associativity, cache.stats,
            stream.processor_references, stream.readin_miss_ratio,
            accumulators, distance,
        )
        self._results[cache_key] = result
        self._record_run(
            l1, l2, associativity, tag_bits, transforms,
            mru_list_lengths, extra_tag_bits, writeback_optimization,
        )
        if self.obs_dir is not None:
            self.write_obs()
        return result

    def _record_run(
        self, l1, l2, associativity, tag_bits, transforms,
        mru_list_lengths, extra_tag_bits, writeback_optimization,
    ) -> None:
        """Append one run's configuration to the manifest run log."""
        self._run_log.append({
            "method": "run",
            "l1": l1.label,
            "l2": l2.label,
            "associativity": associativity,
            "tag_bits": tag_bits,
            "transforms": list(transforms),
            "mru_list_lengths": list(mru_list_lengths),
            "extra_tag_bits": list(extra_tag_bits),
            "writeback_optimization": writeback_optimization,
        })

    def write_obs(self, obs_dir=None) -> Optional[RunManifest]:
        """Write the provenance manifest and span trace for this runner.

        Emits ``manifest.json`` — config hash over every run so far,
        workload identity, code identity, per-phase timings, and the
        current metric snapshot — plus the tracer's ``trace.jsonl``
        into ``obs_dir`` (defaulting to the runner's ``obs_dir``).
        Called automatically after each run when the runner was
        constructed with ``obs_dir=``; both files are rewritten whole,
        so they always describe the complete session.

        Returns:
            The written :class:`~repro.obs.manifest.RunManifest`, or
            ``None`` when no directory is configured.
        """
        obs_dir = Path(obs_dir) if obs_dir is not None else self.obs_dir
        if obs_dir is None:
            return None
        manifest = RunManifest.build(
            tool="ExperimentRunner",
            config={"runs": self._run_log},
            workload=self.workload,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        manifest.write(obs_dir / "manifest.json")
        self.tracer.write_jsonl(obs_dir / "trace.jsonl")
        return manifest


@dataclass(frozen=True)
class SweepPoint:
    """One (L1, L2, associativity) sweep point with its run options."""

    l1: str
    l2: str
    associativity: int
    tag_bits: int = DEFAULT_TAG_BITS
    transforms: Tuple[str, ...] = ("xor",)
    mru_list_lengths: Tuple[int, ...] = ()
    extra_tag_bits: Tuple[int, ...] = ()
    writeback_optimization: bool = True


class ParallelSweepRunner:
    """Runs independent sweep points across worker processes.

    Each point is one task on a
    :class:`~repro.resilience.executor.ResilientPoolExecutor`: bounded
    retries on the next free worker, per-point wall-clock timeouts,
    worker-death recovery, and crash-safe checkpoint/resume — see
    ``docs/resilience.md``. The parent captures every distinct L1 of the
    submitted points in one trace pass, inside its ``sweep`` span,
    before the pool forks, so every worker inherits the streams it
    replays; results come back in input order, so a parallel sweep is
    byte-identical to running the points serially through an
    :class:`ExperimentRunner` — only wall-clock changes.

    A failed point becomes a structured
    :class:`~repro.resilience.policy.PointFailure` naming the sweep
    point (not a bare pool traceback), recorded in the run manifest
    when one is being emitted. Live per-point progress (with ETA) can
    be watched on stderr via ``REPRO_PROGRESS=1``.

    Args:
        workload: Shared workload; defaults to
            :func:`~repro.experiments.configs.default_workload`.
        processes: Worker count; defaults to the CPU count.
        metrics: Target :class:`~repro.obs.metrics.MetricsRegistry` the
            merged worker snapshots land in; defaults to the
            process-global registry.
        tracer: Target :class:`~repro.obs.spans.Tracer` for the sweep
            span; defaults to the process-global tracer.
        obs_dir: When set, each :meth:`run_points` call writes a
            provenance ``manifest.json`` and span ``trace.jsonl``
            there — see :meth:`write_obs`.
    """

    def __init__(
        self,
        workload: Optional[AtumWorkload] = None,
        processes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        obs_dir=None,
    ) -> None:
        self.workload = workload if workload is not None else default_workload()
        self.processes = processes
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.failures: List[Dict[str, Any]] = []
        self._points_log: List[Dict[str, Any]] = []

    def run_points(
        self,
        points: Sequence[SweepPoint],
        failure_policy: "FailurePolicy | str" = "retry_then_collect",
        retry: Optional[RetryPolicy] = None,
        checkpoint: "SweepCheckpoint | str | None" = None,
    ) -> SweepOutcome:
        """Run every point, one task per point, preserving input order.

        Returns a :class:`~repro.resilience.policy.SweepOutcome`
        carrying every completed :class:`ConfigResult` plus structured
        failure records; results stay bit-identical to the serial
        runner.

        Args:
            points: The sweep points, in output order.
            failure_policy: ``"fail_fast"`` | ``"collect"`` |
                ``"retry_then_collect"`` (or the enum).
            retry: Backoff/timeout parameters; defaults to
                :class:`~repro.resilience.policy.RetryPolicy`'s.
            checkpoint: A
                :class:`~repro.resilience.checkpoint.SweepCheckpoint`
                or a path to one. Completed points found in it are
                restored instead of re-run, and every newly completed
                point is durably appended — kill the process at any
                moment and a rerun with the same checkpoint finishes
                only the remainder.

        Raises:
            SweepPointError: When a point fails under ``fail_fast``;
                the failure is recorded (and, with ``obs_dir`` set, the
                manifest written) before re-raising.
            CheckpointError: When ``checkpoint`` exists but was
                written by a different sweep configuration.
        """
        policy = FailurePolicy.coerce(failure_policy)
        retry = retry if retry is not None else RetryPolicy()
        outcome = SweepOutcome(results=[None] * len(points))
        if not points:
            return outcome
        signatures = [point_signature(point) for point in points]
        if checkpoint is not None and not isinstance(
            checkpoint, SweepCheckpoint
        ):
            checkpoint = SweepCheckpoint(
                checkpoint, config_hash=self.sweep_config_hash()
            )
        if checkpoint is not None:
            restored = checkpoint.load()
            for index, signature in enumerate(signatures):
                if signature in restored:
                    outcome.results[index] = config_result_from_dict(
                        restored[signature]
                    )
                    outcome.resumed += 1
            if outcome.resumed:
                self.metrics.counter("resilience.checkpoint_resumed").inc(
                    outcome.resumed
                )
                log.debug(
                    "sweep.resume", restored=outcome.resumed,
                    remaining=len(points) - outcome.resumed,
                )
        tasks = [
            (index, (self.workload, point))
            for index, point in enumerate(points)
            if outcome.results[index] is None
        ]
        self._points_log.extend(asdict(point) for point in points)
        # Progress counts only the submitted tasks, so a resumed sweep
        # still ends on a "done" line.
        reporter = ProgressReporter(total=len(tasks), label="sweep")
        shard = {index: n for n, (index, _) in enumerate(tasks)}

        def on_result(index, value):
            result, snapshot = value
            outcome.results[index] = result
            self.metrics.merge_snapshot(snapshot)
            if checkpoint is not None:
                checkpoint.record(
                    signatures[index], config_result_to_dict(result)
                )
            reporter.finished(shard[index], f"point {points[index].l2}")

        def on_failure(failure):
            failure.point = asdict(points[failure.key])
            failure.signature = signatures[failure.key]
            self.failures.append(failure.to_dict())

        executor = ResilientPoolExecutor(
            _run_sweep_point,
            processes=self.processes,
            retry=retry,
            failure_policy=policy,
            metrics=self.metrics,
            on_submit=lambda index, attempt: reporter.started(
                shard[index], f"point {points[index].l2}, attempt {attempt}"
            ),
            on_result=on_result,
            on_failure=on_failure,
            validator=_validate_point_result,
            tracer=self.tracer,
        )
        log.debug(
            "sweep.start", points=len(points), tasks=len(tasks),
            policy=policy.value, timeout=retry.timeout,
        )
        try:
            with self.tracer.span(
                "sweep",
                points=len(points), tasks=len(tasks), policy=policy.value,
            ):
                self._capture_l1s(points[index].l1 for index, _ in tasks)
                report = executor.run(tasks)
        except SweepPointError:
            # fail_fast: the failure is already in self.failures via
            # the on_failure callback.
            if self.obs_dir is not None:
                self.write_obs()
            raise
        finally:
            if checkpoint is not None:
                checkpoint.close()
        outcome.failures = report.failures
        outcome.retries = report.retries
        outcome.pool_restarts = report.pool_restarts
        outcome.timeouts = report.timeouts
        log.debug(
            "sweep.done", points=len(points),
            completed=outcome.completed(), failed=len(outcome.failures),
        )
        if self.obs_dir is not None:
            self.write_obs()
        return outcome

    def _capture_l1s(self, labels) -> None:
        """Capture every distinct L1 among ``labels`` in one trace pass,
        before the pool forks, so every worker inherits the process-wide
        memo and none re-simulates an L1. Each L1 is built first, and a
        label that does not make a valid one is left out of the pass;
        its point then fails in its worker as its own
        :class:`~repro.resilience.policy.PointFailure`.
        """
        geometries = []
        for label in dict.fromkeys(labels):
            try:
                geometry = parse_geometry(label)
                DirectMappedCache(geometry.capacity_bytes, geometry.block_size)
            except ConfigurationError:
                continue
            geometries.append(geometry)
        if geometries:
            ExperimentRunner(
                self.workload, metrics=self.metrics, tracer=self.tracer
            ).miss_stream(*geometries)

    def sweep_config_hash(self) -> str:
        """Content address of this sweep's identity (checkpoint key).

        Covers the workload identity — everything that must match for
        checkpointed results to be interchangeable with fresh ones. The
        point list is *not* included: points are keyed individually by
        :func:`~repro.resilience.checkpoint.point_signature`, so a
        resumed sweep may reorder or extend them.
        """
        return config_hash({
            "workload": describe_workload(self.workload),
            # Constant, so checkpoints written before the observer path
            # was removed keep their hash and still resume.
            "use_engine": True,
        })

    def write_obs(self, obs_dir=None) -> Optional[RunManifest]:
        """Write the sweep's provenance manifest and span trace.

        The manifest's config covers every point passed to
        :meth:`run_points` so far (hashed into ``config_hash``), the
        workload identity, merged metrics, per-phase timings, and any
        recorded failures. Called automatically when the runner was
        constructed with ``obs_dir=``.

        Returns:
            The written :class:`~repro.obs.manifest.RunManifest`, or
            ``None`` when no directory is configured.
        """
        obs_dir = Path(obs_dir) if obs_dir is not None else self.obs_dir
        if obs_dir is None:
            return None
        manifest = RunManifest.build(
            tool="ParallelSweepRunner",
            config={
                "points": self._points_log,
                "processes": self.processes,
            },
            workload=self.workload,
            tracer=self.tracer,
            metrics=self.metrics,
            failures=self.failures,
        )
        manifest.write(obs_dir / "manifest.json")
        self.tracer.write_jsonl(obs_dir / "trace.jsonl")
        return manifest

