"""Declarative reporting: tables, trajectory reports, results summary.

``repro.report`` is the presentation layer of the reproduction. Every
other subsystem *produces* structured results — table builders, figure
series, benchmark histories — and this package
turns them into observable artifacts from one declarative spec:

- :mod:`repro.report.builder` — :class:`TableBuilder`, a
  zero-dependency table renderer with a defaults → preset → runtime
  override config cascade (the kstlib ``TableBuilder`` idiom), emitting
  ASCII, GitHub markdown, CSV, or HTML from the same column specs,
  plus :func:`sparkline` for inline ASCII trend lines;
- :mod:`repro.report.trajectory` — :class:`TrajectoryReport`, the
  benchmark-trajectory view over a
  :class:`~repro.obs.bench.BenchHistory`: throughput and latency per
  commit with bootstrap CI bands and the same regression verdict
  ``repro-bench-compare`` computes;
- :mod:`repro.report.summary` — the one-command
  ``results/results_summary.md`` generator (paper Tables 1–3, figure
  series, provenance stamp);
- :mod:`repro.report.cli` — the ``repro-report`` entry point.

Import layering: this package depends only on the standard library and
:mod:`repro.obs`. The submodules that *consume* experiment builders
(:mod:`~repro.report.summary`) import :mod:`repro.experiments` at
module scope, so they are deliberately **not** imported here —
``repro.experiments.report`` renders through
:mod:`repro.report.builder` without a cycle.
"""

from repro.report.builder import (
    DEFAULTS,
    PRESETS,
    TableBuilder,
    register_preset,
    sparkline,
)
from repro.report.trajectory import REPORT_SCHEMA_VERSION, TrajectoryReport

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "REPORT_SCHEMA_VERSION",
    "TableBuilder",
    "TrajectoryReport",
    "register_preset",
    "sparkline",
]
