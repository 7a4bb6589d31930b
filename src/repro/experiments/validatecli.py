"""``repro-validate``: run the acceptance harness from the command line.

Usage::

    repro-validate                 # default workload scale
    repro-validate --scale 0.04    # quicker, looser statistics
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.errors import console_script
from repro.experiments.configs import default_workload
from repro.experiments.runner import ExperimentRunner
from repro.experiments.validation import validate


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: run all checks; exit 0 iff everything passed."""
    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description="Check every headline claim of the reproduction "
        "against a fresh simulation run.",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1989)
    args = parser.parse_args(argv)

    runner = ExperimentRunner(default_workload(scale=args.scale, seed=args.seed))
    report = validate(runner)
    print(report.render())
    return 0 if report.passed else 1


run = console_script(main)

if __name__ == "__main__":
    run()
