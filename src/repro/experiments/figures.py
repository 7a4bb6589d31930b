"""Builders for the paper's figures (as data series).

All figures use the paper's reference configuration — a 16K-16 level
one cache over a 256K-32 level two cache — unless stated otherwise,
with 16-bit tags and the subset counts of Section 3 (1, 2, 4 subsets
at 4, 8, 16-way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.analysis import default_subsets, expected_partial_hit_probes
from repro.experiments.report import render_series
from repro.experiments.runner import ExperimentRunner

#: Associativities swept in the figures (Figure 3 starts at the
#: direct-mapped point).
FIGURE_ASSOCIATIVITIES = (1, 2, 4, 8, 16)
DEFAULT_L1 = "16K-16"
DEFAULT_L2 = "256K-32"


@dataclass
class FigureSeries:
    """Named data series over associativity, plus rendering metadata."""

    title: str
    x_label: str
    y_label: str
    series: Dict[str, Dict[object, float]] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII rendering of the series (one column per line style)."""
        return render_series(
            self.series, x_label=self.x_label, y_label=self.y_label,
            title=f"{self.title} [{self.y_label}]",
        )


def build_figure3(
    runner: ExperimentRunner,
    associativities: Sequence[int] = FIGURE_ASSOCIATIVITIES,
    l1: str = DEFAULT_L1,
    l2: str = DEFAULT_L2,
) -> FigureSeries:
    """Figure 3: probes per access vs associativity, with and without
    the write-back optimization."""
    figure = FigureSeries(
        title=f"Figure 3. Probes for read-ins and write-backs ({l1} / {l2})",
        x_label="associativity",
        y_label="avg probes per L2 access",
    )
    for optimized, suffix in ((True, " (wb-opt)"), (False, " (no-opt)")):
        for a in associativities:
            result = runner.run(l1, l2, a, writeback_optimization=optimized)
            for scheme in ("traditional", "naive", "mru", "partial"):
                name = scheme + suffix
                figure.series.setdefault(name, {})[a] = (
                    result.schemes[scheme].total
                )
    return figure


def build_figure4(
    runner: ExperimentRunner,
    associativities: Sequence[int] = FIGURE_ASSOCIATIVITIES,
    l1: str = DEFAULT_L1,
    l2: str = DEFAULT_L2,
) -> FigureSeries:
    """Figure 4: probes split into read-in hits and misses."""
    figure = FigureSeries(
        title=f"Figure 4. Probes for read-in hits and misses ({l1} / {l2})",
        x_label="associativity",
        y_label="avg probes (hits | misses)",
    )
    for a in associativities:
        result = runner.run(l1, l2, a)
        for scheme in ("naive", "mru", "partial"):
            data = result.schemes[scheme]
            figure.series.setdefault(f"{scheme} hits", {})[a] = data.readin_hits
            figure.series.setdefault(f"{scheme} misses", {})[a] = data.misses
    return figure


def build_figure5(
    runner: ExperimentRunner,
    associativities: Sequence[int] = (4, 8, 16),
    list_lengths: Sequence[int] = (1, 2, 4, 8),
    l1: str = DEFAULT_L1,
    l2: str = DEFAULT_L2,
) -> "Figure5":
    """Figure 5: reduced MRU lists (left) and MRU hit distances (right)."""
    left = FigureSeries(
        title=f"Figure 5 (left). Reduced MRU lists ({l1} / {l2})",
        x_label="associativity",
        y_label="avg probes per read-in hit",
    )
    distributions: Dict[int, List[float]] = {}
    for a in associativities:
        lengths = sorted({m for m in list_lengths if m < a})
        result = runner.run(l1, l2, a, mru_list_lengths=lengths)
        left.series.setdefault("full list", {})[a] = (
            result.schemes["mru"].readin_hits
        )
        for m in lengths:
            left.series.setdefault(f"list length {m}", {})[a] = (
                result.schemes[f"mru/m{m}"].readin_hits
            )
        distributions[a] = result.mru_distribution
    return Figure5(left=left, distributions=distributions)


@dataclass
class Figure5:
    """Both panels of Figure 5."""

    left: FigureSeries
    #: ``f_i`` per associativity: distributions[a][i-1] = P(hit at MRU
    #: distance i | read-in hit).
    distributions: Dict[int, List[float]]

    def render(self) -> str:
        """ASCII rendering of both panels."""
        lines = [self.left.render(), ""]
        lines.append("Figure 5 (right). MRU-distance hit distributions f_i")
        for a, dist in sorted(self.distributions.items()):
            shown = ", ".join(f"f{i + 1}={p:.3f}" for i, p in enumerate(dist[:8]))
            lines.append(f"  {a:>2}-way: {shown}")
        return "\n".join(lines)


def build_figure6(
    runner: ExperimentRunner,
    associativities: Sequence[int] = (4, 8, 16),
    tag_widths: Sequence[int] = (16, 32),
    transforms: Sequence[str] = ("none", "xor", "improved"),
    l1: str = DEFAULT_L1,
    l2: str = DEFAULT_L2,
) -> "Figure6":
    """Figure 6: partial-compare transforms vs theory (left) and the
    improved-transform partial scheme vs MRU (right)."""
    left = FigureSeries(
        title=f"Figure 6 (left). Partial transforms vs theory ({l1} / {l2})",
        x_label="associativity",
        y_label="avg probes per read-in hit",
    )
    right = FigureSeries(
        title="Figure 6 (right). Partial (improved) vs MRU",
        x_label="associativity",
        y_label="avg probes per read-in hit",
    )
    for a in associativities:
        result = runner.run(
            l1, l2, a,
            transforms=tuple(transforms),
            extra_tag_bits=tuple(tag_widths),
        )
        for t in tag_widths:
            for transform in transforms:
                label = f"{transform} t={t}"
                key = f"partial/{transform}/t{t}"
                left.series.setdefault(label, {})[a] = (
                    result.schemes[key].readin_hits
                )
            subsets = default_subsets(a, t)
            k = t * subsets // a
            left.series.setdefault(f"theory t={t}", {})[a] = (
                expected_partial_hit_probes(a, k, subsets)
            )
            right.series.setdefault(f"partial improved t={t}", {})[a] = (
                result.schemes[f"partial/improved/t{t}"].readin_hits
            )
        right.series.setdefault("mru", {})[a] = result.schemes["mru"].readin_hits
    return Figure6(left=left, right=right)


@dataclass
class Figure6:
    """Both panels of Figure 6."""

    left: FigureSeries
    right: FigureSeries

    def render(self) -> str:
        """ASCII rendering of both panels."""
        return self.left.render() + "\n\n" + self.right.render()
