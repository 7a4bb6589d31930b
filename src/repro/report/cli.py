"""``repro-report``: regenerate the results summary.

One command produces the repository's reporting artifact::

    repro-report                          # results/ at default scale
    repro-report --out-dir results --scale 0.125 --seed 1989
    repro-report --no-figures             # tables only, much faster

Writes ``results_summary.md`` into ``--out-dir``: paper Tables 1–3 and
figure-series summaries as github markdown, stamped with provenance
(``config_hash``, git SHA, environment fingerprint, workload
scale/seed) — see :mod:`repro.report.summary`.

Determinism contract: the file contains no timestamp, the workload is
seeded, and all floats use fixed formats — two consecutive runs at the
same commit are byte-identical (a tier-1 test diffs them).

Exit codes: 0 — success; 2 — bad usage or unreadable inputs.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.errors import console_script
from repro.obs.log import log


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate the results summary (deterministic, "
        "provenance-stamped).",
    )
    parser.add_argument(
        "--out-dir",
        default="results",
        help="directory receiving results_summary.md",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale for the table/figure simulations",
    )
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument(
        "--no-figures",
        action="store_true",
        help="skip the figure-series sections (much faster)",
    )
    args = parser.parse_args(argv)

    # Imported here, not at module scope: the summary pulls in the whole
    # experiments stack, which --help never needs.
    from repro.report.summary import build_summary

    text = build_summary(
        scale=args.scale,
        seed=args.seed,
        include_figures=not args.no_figures,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results_summary.md"
    path.write_text(text, encoding="utf-8")
    log.info(f"wrote {path}")
    return 0


run = console_script(main)

if __name__ == "__main__":
    run()
