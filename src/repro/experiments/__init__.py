"""Experiment harness: named configurations, runners, and builders
that regenerate every table and figure of the paper's evaluation.

Each builder returns plain data (lists of rows / series) plus an ASCII
rendering, so results can be asserted in tests, printed from examples,
and timed in benchmarks without duplication.
"""

from repro.experiments.configs import (
    CacheGeometry,
    TABLE4_CONFIGS,
    default_workload,
    parse_geometry,
)
from repro.experiments.runner import (
    ConfigResult,
    ExperimentRunner,
    SchemeResult,
    SweepPoint,
)
from repro.experiments.tables import build_table1, build_table2, build_table3, build_table4
from repro.experiments.figures import (
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
)

__all__ = [
    "CacheGeometry",
    "ConfigResult",
    "ExperimentRunner",
    "SchemeResult",
    "SweepPoint",
    "TABLE4_CONFIGS",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "build_figure6",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "default_workload",
    "parse_geometry",
]
