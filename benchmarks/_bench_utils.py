"""Shared helpers for the benchmark suite."""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def save_result(results_dir: Path, name: str, rendered: str) -> None:
    """Write a rendered table/figure under results/."""
    (results_dir / f"{name}.txt").write_text(rendered + "\n")


def save_figure(results_dir: Path, name: str, figure) -> None:
    """Write a FigureSeries three ways: ASCII, CSV, and SVG."""
    from repro.experiments.report import series_to_csv
    from repro.experiments.svgplot import save_svg

    save_result(results_dir, name, figure.render())
    (results_dir / f"{name}.csv").write_text(
        series_to_csv(figure.series, x_label=figure.x_label)
    )
    save_svg(
        figure.series,
        results_dir / f"{name}.svg",
        title=figure.title,
        x_label=figure.x_label,
        y_label=figure.y_label,
    )


def once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once.

    Full trace-driven simulations are too expensive to repeat for
    statistical timing; one round still gives a useful wall-clock
    number and pytest-benchmark bookkeeping. The environment
    fingerprint is stamped into ``extra_info`` so saved
    pytest-benchmark JSON stays attributable to the machine that ran
    it.
    """
    from repro.obs.bench import environment_fingerprint

    benchmark.extra_info["environment"] = environment_fingerprint()
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
