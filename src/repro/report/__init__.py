"""The results summary: ``results/results_summary.md`` and ``repro-report``.

- :mod:`repro.report.summary` — the one-command
  ``results/results_summary.md`` generator (paper Tables 1–3, figure
  series, provenance stamp), rendered through
  :func:`repro.experiments.report.render_table`;
- :mod:`repro.report.cli` — the ``repro-report`` entry point.
"""
