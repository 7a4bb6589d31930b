"""``repro-chaos``: prove the sweep-resilience guarantees end to end.

Each scenario runs a real (small) parameter sweep on a real worker
pool with a deterministic fault injected, then asserts the guarantee
the resilience layer makes about it:

- ``crash``   — a transient worker exception is retried to success,
  and a *persistent* one is collected without disturbing the other
  points: their results stay bit-identical to a fault-free sweep and
  the failure lands in the run manifest;
- ``exit``    — a worker killed with ``exit(1)`` breaks the pool; the
  pool is re-created, in-flight points are re-queued, and the sweep
  still completes bit-identically;
- ``hang``    — a hung worker is reaped by the per-point timeout and
  the retry completes the sweep;
- ``corrupt`` — a corrupted result is *detectable*: it differs from
  the fault-free run while every untouched point matches exactly (the
  bit-identical discipline the regression gates rely on);
- ``resume``  — a sweep interrupted after N points finishes from its
  checkpoint running only the remainder, with merged results
  bit-identical to an uninterrupted run;
- ``torn-disk`` — the machine "loses power" mid-write at *every*
  injected write point of a checkpointed sweep (a torn, partially
  durable append each time, enumerated by a recording dry run); after
  each crash ``repro-fsck --repair`` heals the torn tail and a resumed
  sweep completes bit-identically — zero silent data loss at any
  crash point;
- ``bitrot``  — a flipped byte in a checkpoint, a stream artifact,
  and a benchmark history is *detected* by every reader as a typed
  :class:`~repro.errors.IntegrityError` (never returned as data),
  ``repro-fsck`` quarantines all three with an honest unrepairable
  verdict, and a recomputation from the quarantined state is
  bit-identical to the baseline — detection, never wrong answers.

Exit code 0 means every requested scenario held; 1 names the ones
that did not. With ``--obs-dir`` the persistent-crash scenario writes
its provenance manifest there, so CI can assert that degraded runs
are visibly degraded (``failures`` is non-empty).

Usage::

    repro-chaos                       # all scenarios, ~tens of seconds
    repro-chaos --scenarios crash,resume --obs-dir chaos-artifacts
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments.runner import (
    ParallelSweepRunner,
    SweepPoint,
    config_result_to_dict,
)
from repro.obs.log import log
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.policy import RetryPolicy
from repro.trace.synthetic import AtumWorkload

#: The small sweep every scenario runs (two L1 streams, four points).
POINTS = (
    SweepPoint("4K-16", "64K-32", 2),
    SweepPoint("4K-16", "64K-32", 4),
    SweepPoint("8K-16", "64K-32", 4),
    SweepPoint("4K-16", "128K-32", 4),
)


class ChaosHarness:
    """Shared state for the scenarios: workload, baseline, obs sink.

    Args:
        processes: Worker-pool size for every scenario sweep.
        obs_dir: When set, the persistent-crash scenario writes its
            run manifest (with failure records) into this directory.
    """

    def __init__(
        self, processes: int = 2, obs_dir: Optional[str] = None
    ) -> None:
        self.processes = processes
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.workload = AtumWorkload(
            segments=2, references_per_segment=2_000, seed=7
        )
        self._baseline: Optional[List[dict]] = None

    def baseline(self) -> List[dict]:
        """Fault-free sweep results (as dicts), computed once."""
        if self._baseline is None:
            runner = ParallelSweepRunner(
                self.workload,
                processes=self.processes,
                metrics=MetricsRegistry(),
            )
            self._baseline = [
                config_result_to_dict(result)
                for result in runner.run_points(list(POINTS)).results
            ]
        return self._baseline

    def sweep(self, plan, obs_dir=None, **kwargs):
        """One resilient sweep under ``plan`` (None = no faults)."""
        kwargs.setdefault(
            "retry", RetryPolicy(max_attempts=3, base_delay=0.05)
        )
        runner = ParallelSweepRunner(
            self.workload,
            processes=self.processes,
            metrics=MetricsRegistry(),
            obs_dir=obs_dir,
        )
        if plan is not None:
            faults.activate(plan)
        try:
            return runner.run_points(list(POINTS), **kwargs)
        finally:
            faults.deactivate()

    def matches_baseline(self, outcome, skip=()) -> bool:
        """Whether every non-skipped result is bit-identical to baseline."""
        for index, expected in enumerate(self.baseline()):
            if index in skip:
                continue
            result = outcome.results[index]
            if result is None or config_result_to_dict(result) != expected:
                return False
        return True


def scenario_crash(harness: ChaosHarness) -> bool:
    """Transient raise retried to success; persistent raise collected."""
    transient = harness.sweep(
        FaultPlan([FaultSpec("raise", at=1, attempts=frozenset({1}))])
    )
    if not (
        transient.ok
        and transient.retries >= 1
        and harness.matches_baseline(transient)
    ):
        return False
    persistent = harness.sweep(
        FaultPlan([FaultSpec("raise", at=1)]), obs_dir=harness.obs_dir
    )
    if persistent.ok or persistent.results[1] is not None:
        return False
    if not harness.matches_baseline(persistent, skip={1}):
        return False
    failure = persistent.failures[0]
    if failure.error_type != "InjectedFaultError" or not failure.traceback:
        return False
    if harness.obs_dir is not None:
        manifest = RunManifest.load(harness.obs_dir / "manifest.json")
        if not manifest.failures:
            return False
    return True


def scenario_exit(harness: ChaosHarness) -> bool:
    """Worker death breaks the pool; recovery loses no other point."""
    outcome = harness.sweep(
        FaultPlan([FaultSpec("exit", at=2, attempts=frozenset({1}))])
    )
    return (
        outcome.ok
        and outcome.pool_restarts >= 1
        and harness.matches_baseline(outcome)
    )


def scenario_hang(harness: ChaosHarness) -> bool:
    """A hung worker is reaped by the timeout and retried to success."""
    outcome = harness.sweep(
        FaultPlan(
            [FaultSpec("hang", at=0, attempts=frozenset({1}), seconds=120)]
        ),
        retry=RetryPolicy(max_attempts=3, base_delay=0.05, timeout=5.0),
    )
    return (
        outcome.ok
        and outcome.timeouts >= 1
        and harness.matches_baseline(outcome)
    )


def scenario_corrupt(harness: ChaosHarness) -> bool:
    """A corrupted worker payload is rejected, not merged.

    The runner's result validator must convert the corrupt value into
    a structured failure (under ``collect``) or retry it to a clean
    result (under ``retry_then_collect`` with a transient fault) —
    either way, nothing corrupt reaches the merged results.
    """
    collected = harness.sweep(
        FaultPlan([FaultSpec("corrupt", at=0)]),
        failure_policy="collect",
    )
    if collected.results[0] is not None or not collected.failures:
        return False  # the corrupt payload was merged or went unnoticed
    if not harness.matches_baseline(collected, skip={0}):
        return False
    retried = harness.sweep(
        FaultPlan([FaultSpec("corrupt", at=0, attempts=frozenset({1}))])
    )
    return (
        retried.ok
        and retried.retries >= 1
        and harness.matches_baseline(retried)
    )


def scenario_resume(harness: ChaosHarness) -> bool:
    """A killed sweep finishes from its checkpoint, bit-identically."""
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = str(Path(tmp) / "sweep.ckpt")
        interrupted = harness.sweep(
            FaultPlan([FaultSpec("raise", at=3)]),
            failure_policy="collect",
            checkpoint=checkpoint,
        )
        if interrupted.completed() != len(POINTS) - 1:
            return False
        resumed = harness.sweep(
            None, failure_policy="collect", checkpoint=checkpoint
        )
        return (
            resumed.ok
            and resumed.resumed == len(POINTS) - 1
            and harness.matches_baseline(resumed)
        )


def scenario_torn_disk(harness: ChaosHarness) -> bool:
    """Power loss at every checkpoint write point; no silent data loss.

    A dry run under a recording :class:`~repro.storage.FaultingIO`
    enumerates every ``write`` that touches the sweep checkpoint. The
    scenario then replays the sweep once per write point with a
    ``torn`` fault injected there — the first half of that append
    reaches the platter, the rest (and everything un-fsync'd) is lost,
    exactly as on power failure. After each crash:

    - ``repro-fsck --repair`` must leave the spool clean (a torn tail
      is always repairable — framing makes the damage legible), and
    - a fault-free rerun over the same checkpoint must complete with
      results bit-identical to the baseline.

    Together: whatever instant the power fails, the checkpoint either
    resumes exactly or is honestly healed — never silently wrong.
    """
    from repro.storage.faultio import (
        InjectedCrashError,
        IOFaultPlan,
        IOFaultSpec,
        activate_io_plan,
        deactivate_io_plan,
    )
    from repro.storage.fsck import scan_directory

    # Dry run: enumerate the injection points (header + one append per
    # point, but counted, not assumed).
    with tempfile.TemporaryDirectory() as tmp:
        recorder = activate_io_plan(IOFaultPlan(), record=True)
        try:
            dry = harness.sweep(
                None, checkpoint=str(Path(tmp) / "dry.ckpt")
            )
        finally:
            deactivate_io_plan()
        if not (dry.ok and harness.matches_baseline(dry)):
            return False
        # Substring match, exactly as an IOFaultSpec's path= option
        # matches: the header's atomic write lands on "<name>.ckpt.tmp"
        # and is an injection point too.
        writes = sum(
            1
            for op, path in recorder.operations
            if op == "write" and ".ckpt" in path
        )
    if writes <= len(POINTS):
        return False  # the checkpoint path is not instrumented

    for nth in range(1, writes + 1):
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = Path(tmp) / "sweep.ckpt"
            activate_io_plan(
                IOFaultPlan(
                    [IOFaultSpec("torn", "write", path=".ckpt", nth=nth)]
                )
            )
            try:
                harness.sweep(None, checkpoint=str(checkpoint))
                return False  # the crash point never fired
            except InjectedCrashError:
                pass
            finally:
                deactivate_io_plan()
            report = scan_directory(Path(tmp), repair=True)
            if not report["ok"]:
                return False  # torn tail was not repairable
            resumed = harness.sweep(None, checkpoint=str(checkpoint))
            if not (resumed.ok and harness.matches_baseline(resumed)):
                return False
    return True


def scenario_bitrot(harness: ChaosHarness) -> bool:
    """Flipped bytes are detected and quarantined, never believed.

    Persists the three durable formats — a framed sweep checkpoint, a
    CRC32-footed RPM2 stream artifact, and a checksummed benchmark
    history — then rots one byte (or digit) in each and asserts the
    end-to-end guarantee:

    - every reader raises a *typed*
      :class:`~repro.errors.IntegrityError` (the artifact store treats
      the rot as a cache miss) — corrupt data is never returned;
    - ``repro-fsck`` detects all three, and ``--repair`` quarantines
      them with an honest ``ok: false`` verdict (bitrot away from a
      tail is never "repaired" by guessing); a rescan is clean;
    - with the rotten checkpoint quarantined, the sweep recomputes
      from scratch, bit-identical to the fault-free baseline.
    """
    from repro.cache.artifacts import StreamArtifactStore, set_artifact_store
    from repro.cache.hierarchy import (
        cached_miss_stream,
        clear_miss_stream_cache,
    )
    from repro.cache.stream import PackedMissStream
    from repro.errors import IntegrityError
    from repro.obs.bench import BenchHistory
    from repro.resilience.checkpoint import SweepCheckpoint
    from repro.storage.fsck import scan_directory

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        checkpoint = root / "sweep.ckpt"
        clean = harness.sweep(None, checkpoint=str(checkpoint))
        if not (clean.ok and harness.matches_baseline(clean)):
            return False

        store = StreamArtifactStore(root / "artifacts")
        clear_miss_stream_cache()
        set_artifact_store(store)
        try:
            cached_miss_stream(harness.workload, 4096, 16)
        finally:
            set_artifact_store(None)
            clear_miss_stream_cache()
        artifact = root / "artifacts" / (
            store.key(harness.workload, 4096, 16) + ".rpm2"
        )
        if not artifact.exists():
            return False

        history_path = root / "BENCH_chaos.json"
        history = BenchHistory()
        history.append(
            {
                "config_hash": "cafe",
                "git_sha": None,
                "median_seconds": 123456.789,
            },
            dedupe=False,
        )
        history.save(history_path)

        # Rot each format: a flipped bit mid-checkpoint (a middle
        # record, not the tail), a flipped bit mid-artifact, and a
        # silently changed digit inside the history entries (the JSON
        # stays well-formed — only the checksum can tell).
        raw = bytearray(checkpoint.read_bytes())
        lines = bytes(raw).split(b"\n")
        offset = len(lines[0]) + 1 + len(lines[1]) // 2
        raw[offset] ^= 0x01
        checkpoint.write_bytes(bytes(raw))

        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        artifact.write_bytes(bytes(raw))

        history_path.write_bytes(
            history_path.read_bytes().replace(b"123456.789", b"123456.788")
        )

        # Every reader reports a typed integrity failure; none returns
        # the rotten bytes as data.
        try:
            SweepCheckpoint(checkpoint).load()
            return False
        except IntegrityError:
            pass
        try:
            PackedMissStream.load(artifact, mmap=False)
            return False
        except IntegrityError:
            pass
        try:
            BenchHistory.load(history_path)
            return False
        except IntegrityError:
            pass
        if store.load(harness.workload, 4096, 16) is not None:
            return False

        # fsck sees all three; --repair quarantines them and says so.
        report = scan_directory(root, repair=False)
        problems = {f["problem"] for f in report["findings"]}
        if report["ok"] or not {"frame-corrupt", "checksum-mismatch"} <= problems:
            return False
        repaired = scan_directory(root, repair=True)
        if repaired["ok"] or repaired["counts"]["quarantined"] < 3:
            return False
        if scan_directory(root, repair=False)["counts"]["findings"]:
            return False

        # Never wrong answers: the rotten checkpoint is gone (moved to
        # quarantine/), so the sweep recomputes — bit-identically.
        if checkpoint.exists():
            return False
        recomputed = harness.sweep(None, checkpoint=str(checkpoint))
        return recomputed.ok and harness.matches_baseline(recomputed)


#: Scenario registry, in execution order.
SCENARIOS: Dict[str, Callable[[ChaosHarness], bool]] = {
    "crash": scenario_crash,
    "exit": scenario_exit,
    "hang": scenario_hang,
    "corrupt": scenario_corrupt,
    "resume": scenario_resume,
    "torn-disk": scenario_torn_disk,
    "bitrot": scenario_bitrot,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: run the scenarios and report PASS/FAIL for each."""
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Fault-injection harness proving the sweep resilience "
        "guarantees (retries, timeouts, pool recovery, checkpoint/resume) "
        "end to end.",
    )
    parser.add_argument(
        "--scenarios", default=",".join(SCENARIOS),
        help=f"comma-separated subset of: {', '.join(SCENARIOS)}",
    )
    parser.add_argument(
        "--processes", type=int, default=2, help="worker pool size"
    )
    parser.add_argument(
        "--obs-dir", metavar="DIR", default=None,
        help="write the crash scenario's manifest (with failure records) "
        "here",
    )
    args = parser.parse_args(argv)

    requested = [name for name in args.scenarios.split(",") if name]
    unknown = [name for name in requested if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(unknown)}")

    harness = ChaosHarness(processes=args.processes, obs_dir=args.obs_dir)
    log.info(
        f"chaos: {len(requested)} scenario(s) over {len(POINTS)} sweep "
        f"points, {args.processes} workers"
    )
    failed = []
    for name in requested:
        ok = SCENARIOS[name](harness)
        log.info(f"chaos.{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        log.error(f"chaos: guarantees violated: {', '.join(failed)}")
        return 1
    log.info("chaos: all guarantees held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
