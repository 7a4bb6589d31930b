"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-tables                     # everything (slow: full trace sims)
    repro-tables table1 table2       # just the analytic/cost tables
    repro-tables fig5 --scale 0.05   # one figure on a smaller workload

Output goes through the :mod:`repro.obs.log` structured logger
(``REPRO_LOG=debug`` for build events, ``REPRO_LOG=info+json`` for
JSON lines); with ``--save DIR`` the run's provenance manifest and
span trace are written into ``DIR`` alongside the artifacts.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.errors import console_script
from repro.experiments.configs import (
    L1_GEOMETRIES,
    default_workload,
    parse_geometry,
)
from repro.experiments.figures import (
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
)
from repro.obs.log import log
from repro.obs.spans import get_tracer

_SIMULATED = ("table3", "table4", "fig3", "fig4", "fig5", "fig6")
_ALL = ("table1", "table2") + _SIMULATED


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: build and print the requested tables/figures."""
    parser = argparse.ArgumentParser(
        prog="repro-tables",
        description="Regenerate tables/figures from 'Inexpensive "
        "Implementations of Set-Associativity' (ISCA 1989).",
    )
    parser.add_argument(
        "targets", nargs="*", default=list(_ALL),
        help=f"what to build (default: all of {', '.join(_ALL)})",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale in (0, 1]; 1.0 is the paper's full "
        "8M-reference trace (default: REPRO_WORKLOAD_SCALE or 0.125)",
    )
    parser.add_argument(
        "--seed", type=int, default=1989, help="workload seed",
    )
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each result into DIR (.txt always; .csv and "
        ".svg for figures)",
    )
    args = parser.parse_args(argv)

    unknown = [t for t in args.targets if t not in _ALL]
    if unknown:
        parser.error(f"unknown targets: {', '.join(unknown)}")

    save_dir = None
    if args.save is not None:
        from pathlib import Path

        save_dir = Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)

    runner = None
    if any(t in _SIMULATED for t in args.targets):
        workload = default_workload(scale=args.scale, seed=args.seed)
        # With --save, the runner also emits its provenance manifest
        # and span trace next to the artifacts.
        runner = ExperimentRunner(workload, obs_dir=save_dir)
        if {"table3", "table4"} & set(args.targets):
            # Table 3 reads, and Table 4 replays, the paper's three L1s:
            # capture them in one pass over the trace before any build.
            runner.miss_stream(*map(parse_geometry, L1_GEOMETRIES))

    builders = {
        "table1": lambda: build_table1(),
        "table2": lambda: build_table2(),
        "table3": lambda: build_table3(runner),
        "table4": lambda: build_table4(runner),
        "fig3": lambda: build_figure3(runner),
        "fig4": lambda: build_figure4(runner),
        "fig5": lambda: build_figure5(runner),
        "fig6": lambda: build_figure6(runner),
    }
    for target in args.targets:
        log.debug("cli.build", target=target)
        start = time.perf_counter()
        with get_tracer().span("build", target=target):
            result = builders[target]()
        elapsed = time.perf_counter() - start
        log.info(result.render())
        log.info(f"[{target} built in {elapsed:.1f}s]")
        log.info("")
        if save_dir is not None:
            _save_target(save_dir, target, result)
    if runner is not None and save_dir is not None:
        # Not every builder replays an L2 (table3 only reads L1 miss
        # ratios), so emit the provenance manifest unconditionally.
        runner.write_obs()
    return 0


def _save_target(save_dir, target: str, result) -> None:
    """Write rendered text plus CSV/SVG panels where applicable."""
    from repro.experiments.report import series_to_csv
    from repro.experiments.svgplot import save_svg

    (save_dir / f"{target}.txt").write_text(result.render() + "\n")
    panels = []
    if hasattr(result, "series"):
        panels.append((target, result))
    if hasattr(result, "left"):
        panels.append((f"{target}_left", result.left))
    if hasattr(result, "right") and hasattr(result.right, "series"):
        panels.append((f"{target}_right", result.right))
    for name, panel in panels:
        (save_dir / f"{name}.csv").write_text(
            series_to_csv(panel.series, x_label=panel.x_label)
        )
        save_svg(
            panel.series, save_dir / f"{name}.svg",
            title=panel.title, x_label=panel.x_label, y_label=panel.y_label,
        )


run = console_script(main)

if __name__ == "__main__":
    run()
