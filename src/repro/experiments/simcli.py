"""``repro-sim``: run one two-level configuration from the command line.

Usage::

    repro-sim --l1 16K-16 --l2 256K-32 --assoc 4
    repro-sim --l1 4K-16 --l2 256K-64 --assoc 8 --transforms none,xor \
              --mru-lists 1,2 --tag-bits 16 --extra-tag-bits 32 --scale 0.02

With ``--obs-dir DIR`` the run's provenance manifest (config hash,
workload seed, per-phase timings, metric snapshot) and JSONL span
trace are written into ``DIR`` — the instrumented smoke path CI
validates.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.errors import console_script
from repro.experiments.configs import default_workload
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentRunner
from repro.obs.log import log


def _int_list(raw: str) -> List[int]:
    return [int(part) for part in raw.split(",") if part]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: simulate one configuration and print the report."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate one L1/L2 configuration and report probes "
        "per access for every lookup scheme.",
    )
    parser.add_argument("--l1", default="16K-16", help="L1 geometry label")
    parser.add_argument("--l2", default="256K-32", help="L2 geometry label")
    parser.add_argument("--assoc", type=int, default=4, help="L2 associativity")
    parser.add_argument("--tag-bits", type=int, default=16)
    parser.add_argument(
        "--transforms", type=str, default="xor",
        help="comma-separated transform names (none,xor,improved,swap)",
    )
    parser.add_argument(
        "--mru-lists", type=_int_list, default=[],
        help="comma-separated reduced MRU list lengths",
    )
    parser.add_argument(
        "--extra-tag-bits", type=_int_list, default=[],
        help="additional tag widths for the partial scheme",
    )
    parser.add_argument(
        "--no-wb-opt", action="store_true",
        help="disable the write-back optimization",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument(
        "--obs-dir", metavar="DIR", default=None,
        help="write the provenance manifest and JSONL span trace here",
    )
    args = parser.parse_args(argv)

    runner = ExperimentRunner(
        default_workload(scale=args.scale, seed=args.seed)
    )
    result = runner.run(
        args.l1,
        args.l2,
        args.assoc,
        tag_bits=args.tag_bits,
        transforms=tuple(args.transforms.split(",")),
        mru_list_lengths=tuple(args.mru_lists),
        extra_tag_bits=tuple(args.extra_tag_bits),
        writeback_optimization=not args.no_wb_opt,
    )

    log.info(
        f"{args.l1} L1 (miss {result.l1_miss_ratio:.4f}) over "
        f"{args.l2} {args.assoc}-way L2"
    )
    log.info(
        f"global miss {result.global_miss_ratio:.4f}  "
        f"local miss {result.local_miss_ratio:.4f}  "
        f"write-backs {result.fraction_writebacks:.4f}  "
        f"wb-miss {result.writeback_miss_ratio:.4f}"
    )
    rows = [
        (data.label, data.hits, data.misses, data.total, data.readin_hits)
        for data in result.schemes.values()
    ]
    log.info(
        render_table(
            ["scheme", "hits*", "misses", "total", "read-in hits"],
            rows,
            title="Probes per access (* hits column counts write-backs "
            "as zero-probe hits)",
        )
    )
    f = result.mru_distribution
    shown = ", ".join(f"f{i + 1}={p:.3f}" for i, p in enumerate(f[:8]))
    log.info(f"MRU hit distances: {shown}")
    log.info(f"best low-cost scheme in total probes: {result.best_total()}")
    if args.obs_dir is not None:
        runner.write_obs(args.obs_dir)
        log.debug("simcli.obs", obs_dir=args.obs_dir)
    return 0


run = console_script(main)

if __name__ == "__main__":
    run()
