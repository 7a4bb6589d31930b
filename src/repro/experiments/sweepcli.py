"""``repro-sweep``: fault-tolerant parameter sweeps from the command line.

Runs the cartesian product of the requested L1 geometries, L2
geometries, and associativities through the resilient
:class:`~repro.experiments.runner.ParallelSweepRunner` path::

    repro-sweep --l1 4K-16 --l2 64K-32,128K-32 --assoc 2,4
    repro-sweep ... --checkpoint sweep.ckpt            # record progress
    repro-sweep ... --checkpoint sweep.ckpt --resume   # finish a killed run
    repro-sweep ... --failure-policy collect --timeout 600 --max-attempts 5

With ``--checkpoint`` every completed point is durably appended to a
crash-safe JSONL file; a killed run restarted with ``--resume``
re-runs only the unfinished points and its merged results are
bit-identical to an uninterrupted sweep. Failures are reported per
point (and recorded in the ``--obs-dir`` manifest) instead of
aborting the whole sweep.

Exit codes: 0 — every point completed; 3 — partial: some points
failed, or a SIGTERM/SIGINT interrupted the sweep (completed points
are durable in the checkpoint and a rerun with ``--resume`` finishes
the remainder); 2 — bad usage (including refusing to overwrite an
existing checkpoint without ``--resume``).
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
from pathlib import Path
from typing import List, Optional

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.set_associative import SetAssociativeCache
from repro.errors import ConfigurationError, console_script
from repro.experiments.configs import default_workload, parse_geometry
from repro.experiments.runner import (
    ParallelSweepRunner,
    SweepPoint,
    _scheme_plan,
    config_result_to_dict,
)
from repro.obs.log import log
from repro.resilience.policy import RetryPolicy

#: Exit code when the sweep completed with point failures.
EXIT_PARTIAL = 3


class _SweepInterrupted(Exception):
    """Internal: a shutdown signal arrived mid-sweep."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def _install_signal_handlers():
    """Route SIGTERM/SIGINT into :class:`_SweepInterrupted`.

    Returns the replaced handlers (for restoration), or ``None`` when
    not on the main thread (signal handlers can only be installed
    there; embedded callers keep their own handling).
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum, frame):
        raise _SweepInterrupted(signum)

    return {
        signum: signal.signal(signum, handler)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }


def _restore_signal_handlers(previous) -> None:
    """Put back the handlers replaced by :func:`_install_signal_handlers`."""
    if previous is None:
        return
    for signum, old in previous.items():
        signal.signal(signum, old)


def _build_points(args) -> List[SweepPoint]:
    """The cartesian product of the requested sweep axes.

    Runs the checks a worker runs on its point first — geometry labels,
    cache shapes, the scheme plan — so a bad axis raises
    :class:`~repro.errors.ConfigurationError` here, before the pool
    starts, instead of failing every point through the retry policy.
    """
    try:
        associativities = [int(a) for a in args.assoc.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--assoc {args.assoc}: associativities must be integers"
        ) from None
    transforms = tuple(args.transforms.split(","))
    l1_labels = args.l1.split(",")
    l2_labels = args.l2.split(",")
    for label in l1_labels:
        try:
            l1 = parse_geometry(label)
            DirectMappedCache(l1.capacity_bytes, l1.block_size)
        except (ConfigurationError, ValueError) as exc:
            raise ConfigurationError(f"--l1 {label}: {exc}") from None
    for label in l2_labels:
        for assoc in associativities:
            try:
                l2 = parse_geometry(label)
                _scheme_plan(assoc, args.tag_bits, transforms, (), ())
                SetAssociativeCache(l2.capacity_bytes, l2.block_size, assoc)
            except (ConfigurationError, ValueError) as exc:
                raise ConfigurationError(
                    f"--l2 {label} --assoc {assoc} --tag-bits {args.tag_bits} "
                    f"--transforms {args.transforms}: {exc}"
                ) from None
    return [
        SweepPoint(
            l1=l1,
            l2=l2,
            associativity=assoc,
            tag_bits=args.tag_bits,
            transforms=transforms,
        )
        for l1 in l1_labels
        for l2 in l2_labels
        for assoc in associativities
    ]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: run the sweep, print a summary, emit results."""
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run a fault-tolerant L1/L2/associativity sweep with "
        "retries, per-point timeouts, and checkpoint/resume.",
    )
    parser.add_argument(
        "--l1", default="4K-16", help="comma-separated L1 geometry labels"
    )
    parser.add_argument(
        "--l2", default="64K-32", help="comma-separated L2 geometry labels"
    )
    parser.add_argument(
        "--assoc", default="2,4", help="comma-separated associativities"
    )
    parser.add_argument("--tag-bits", type=int, default=16)
    parser.add_argument(
        "--transforms", default="xor",
        help="comma-separated transform names (none,xor,improved,swap)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--processes", type=int, default=None)
    parser.add_argument(
        "--failure-policy", default="retry_then_collect",
        choices=["fail_fast", "collect", "retry_then_collect"],
        help="what to do when a point fails (default: retry_then_collect)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per point under retry_then_collect",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-point wall-clock timeout in seconds",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="crash-safe JSONL checkpoint recording each completed point",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore completed points from --checkpoint before running",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write per-point results and failures as JSON",
    )
    parser.add_argument(
        "--obs-dir", metavar="DIR", default=None,
        help="write the provenance manifest and JSONL span trace here",
    )
    args = parser.parse_args(argv)

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if (
        args.checkpoint is not None
        and not args.resume
        and Path(args.checkpoint).exists()
    ):
        parser.error(
            f"checkpoint {args.checkpoint} already exists; pass --resume to "
            "finish that sweep or delete the file to start over"
        )

    try:
        points = _build_points(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    runner = ParallelSweepRunner(
        default_workload(scale=args.scale, seed=args.seed),
        processes=args.processes,
        obs_dir=args.obs_dir,
    )
    retry = RetryPolicy(max_attempts=args.max_attempts, timeout=args.timeout)
    previous_handlers = _install_signal_handlers()
    try:
        outcome = runner.run_points(
            points,
            failure_policy=args.failure_policy,
            retry=retry,
            checkpoint=args.checkpoint,
        )
    except _SweepInterrupted as exc:
        # Completed points are already durable in the checkpoint (each
        # is fsync'd as it finishes); report the partial state honestly
        # instead of dying with a KeyboardInterrupt traceback.
        log.warning(
            "sweep.interrupted",
            signal=exc.signum,
            checkpoint=args.checkpoint,
        )
        if args.checkpoint is not None:
            log.info(
                f"completed points are checkpointed in {args.checkpoint}; "
                "rerun with --resume to finish the sweep"
            )
        else:
            log.info(
                "no --checkpoint was given, so completed points were "
                "discarded; rerun with --checkpoint to make interrupted "
                "sweeps resumable"
            )
        return EXIT_PARTIAL
    finally:
        _restore_signal_handlers(previous_handlers)

    for point, result in zip(points, outcome.results):
        name = f"{point.l1} / {point.l2} {point.associativity}-way"
        if result is None:
            log.info(f"{name}: FAILED")
            continue
        totals = ", ".join(
            f"{label}={scheme.total:.4f}"
            for label, scheme in sorted(result.schemes.items())
            if "/" not in label
        )
        log.info(f"{name}: {totals}")
    log.info(
        f"{outcome.completed()}/{len(points)} points completed"
        + (f" ({outcome.resumed} restored from checkpoint)"
           if outcome.resumed else "")
        + (f", {outcome.retries} retries" if outcome.retries else "")
        + (f", {len(outcome.failures)} failed" if outcome.failures else "")
    )
    for failure in outcome.failures:
        log.error(failure.to_dict()["error"])

    if args.out is not None:
        payload = {
            "points": [
                {
                    "l1": point.l1,
                    "l2": point.l2,
                    "associativity": point.associativity,
                    "result": (
                        config_result_to_dict(result)
                        if result is not None
                        else None
                    ),
                }
                for point, result in zip(points, outcome.results)
            ],
            "failures": [f.to_dict() for f in outcome.failures],
            "resumed": outcome.resumed,
            "retries": outcome.retries,
            "pool_restarts": outcome.pool_restarts,
            "timeouts": outcome.timeouts,
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_PARTIAL if outcome.failures else 0


run = console_script(main)

if __name__ == "__main__":
    run()
