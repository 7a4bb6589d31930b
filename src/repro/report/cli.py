"""``repro-report``: regenerate the results summary and trajectory.

One command produces the repository's observable reporting artifacts::

    repro-report                          # results/ at default scale
    repro-report --out-dir results --scale 0.125 --seed 1989
    repro-report --history BENCH_simulator.json --no-figures

Writes into ``--out-dir``:

- ``results_summary.md`` — paper Tables 1–3 and figure-series
  summaries as github markdown, stamped with provenance
  (``config_hash``, git SHA, environment fingerprint, workload
  scale/seed) — see :mod:`repro.report.summary`;
- ``trajectory.json`` — the machine-readable bench-trajectory report
  (schema-checked by ``repro-obs-validate --report``);
- ``trajectory.html`` — the static trajectory page.

Determinism contract: no artifact contains a timestamp, the workload
is seeded, and all floats use fixed formats — two consecutive runs at
the same commit are byte-identical (CI diffs them in the
``report-smoke`` job).

Exit codes: 0 — success; 2 — bad usage or unreadable inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.obs.compare import DEFAULT_THRESHOLD
from repro.obs.log import log
from repro.report.trajectory import TrajectoryReport


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate the results summary and the benchmark "
        "trajectory report (deterministic, provenance-stamped).",
    )
    parser.add_argument(
        "--out-dir",
        default="results",
        help="directory receiving the generated artifacts",
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default="BENCH_simulator.json",
        help="benchmark trajectory history (missing file -> empty "
        "trajectory)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale for the table/figure simulations",
    )
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="median-slowdown threshold for the trajectory verdict",
    )
    parser.add_argument(
        "--no-figures",
        action="store_true",
        help="skip the figure-series sections (much faster)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip the trajectory section and artifacts",
    )
    parser.add_argument(
        "--no-summary",
        action="store_true",
        help="skip results_summary.md (trajectory artifacts only)",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    if not args.no_trajectory:
        trajectory = TrajectoryReport.from_file(
            args.history, threshold=args.threshold
        )
        path = out_dir / "trajectory.json"
        path.write_text(trajectory.to_json() + "\n", encoding="utf-8")
        written.append(path)
        path = out_dir / "trajectory.html"
        path.write_text(trajectory.render_html(), encoding="utf-8")
        written.append(path)
        verdict = trajectory.verdict
        if verdict is not None:
            log.info(f"trajectory verdict: {verdict}")

    if not args.no_summary:
        # Imported here, not at module scope: the summary pulls in the
        # whole experiments stack, which --no-summary runs never need.
        from repro.report.summary import build_summary

        text = build_summary(
            scale=args.scale,
            seed=args.seed,
            history_path=None if args.no_trajectory else args.history,
            threshold=args.threshold,
            include_figures=not args.no_figures,
        )
        path = out_dir / "results_summary.md"
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for path in written:
        log.info(f"wrote {path}")
    return 0


def run() -> None:
    """Console-script shim mapping :class:`ReproError` to exit code 2."""
    try:
        sys.exit(main())
    except ReproError as exc:
        log.error(str(exc))
        sys.exit(2)


if __name__ == "__main__":
    run()
