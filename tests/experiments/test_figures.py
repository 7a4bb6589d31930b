"""Tests for figure builders (shape assertions on small workloads)."""

import pytest

from repro.experiments.figures import (
    Figure5,
    FigureSeries,
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
)


@pytest.fixture(scope="module")
def fig3(runner):
    return build_figure3(runner, associativities=(2, 4), l2="64K-32")


@pytest.fixture(scope="module")
def fig4(runner):
    return build_figure4(runner, associativities=(2, 4), l2="64K-32")


@pytest.fixture(scope="module")
def fig5(runner):
    return build_figure5(
        runner, associativities=(4, 8), list_lengths=(1, 2), l2="64K-32"
    )


@pytest.fixture(scope="module")
def fig6(runner):
    return build_figure6(runner, associativities=(4, 8), l2="64K-32")


class TestFigure3:
    def test_series_present(self, fig3):
        assert "traditional (wb-opt)" in fig3.series
        assert "naive (no-opt)" in fig3.series

    def test_traditional_flat_and_minimal(self, fig3):
        trad = fig3.series["traditional (wb-opt)"]
        for a, probes in trad.items():
            assert probes <= 1.0
        for name, points in fig3.series.items():
            if name.endswith("(wb-opt)"):
                for a in trad:
                    assert points[a] >= trad[a] - 1e-9

    def test_optimization_never_hurts(self, fig3):
        for scheme in ("naive", "mru", "partial"):
            for a in (2, 4):
                assert fig3.series[f"{scheme} (no-opt)"][a] >= (
                    fig3.series[f"{scheme} (wb-opt)"][a]
                )

    def test_probes_grow_with_associativity(self, fig3):
        for scheme in ("naive", "mru"):
            series = fig3.series[f"{scheme} (wb-opt)"]
            assert series[4] > series[2]

    def test_render(self, fig3):
        text = fig3.render()
        assert "associativity" in text
        assert "Figure 3" in text


class TestFigure4:
    def test_miss_series_match_formulas(self, fig4):
        for a in (2, 4):
            assert fig4.series["naive misses"][a] == pytest.approx(a)
            assert fig4.series["mru misses"][a] == pytest.approx(a + 1)

    def test_partial_dominates_on_misses(self, fig4):
        for a in (2, 4):
            assert fig4.series["partial misses"][a] < fig4.series["naive misses"][a]

    def test_hits_series_present(self, fig4):
        for scheme in ("naive", "mru", "partial"):
            assert f"{scheme} hits" in fig4.series


class TestFigure5:
    def test_reduced_lists_no_better_than_full(self, fig5):
        full = fig5.left.series["full list"]
        for name, points in fig5.left.series.items():
            if name.startswith("list length"):
                for a, probes in points.items():
                    assert probes >= full[a] - 1e-9

    def test_longer_lists_dominate_shorter(self, fig5):
        one = fig5.left.series["list length 1"]
        two = fig5.left.series["list length 2"]
        for a in two:
            assert two[a] <= one[a] + 1e-9

    def test_distributions_normalized(self, fig5):
        for a, dist in fig5.distributions.items():
            assert len(dist) == a
            assert sum(dist) == pytest.approx(1.0, abs=1e-6)

    def test_f1_decreases_with_associativity(self, fig5):
        # Paper Figure 5 (right): wider sets spread hits over more
        # distances.
        assert fig5.distributions[8][0] <= fig5.distributions[4][0] + 0.05

    def test_render(self, fig5):
        text = fig5.render()
        assert "f1=" in text


class TestFigure6:
    def test_transform_series_present(self, fig6):
        for transform in ("none", "xor", "improved"):
            for t in (16, 32):
                assert f"{transform} t={t}" in fig6.left.series

    def test_theory_is_lower_bound_at_16_bits(self, fig6):
        # Theory is a probabilistic lower bound; measured transforms
        # should not beat it by more than noise.
        for a in (4, 8):
            theory = fig6.left.series["theory t=16"][a]
            for transform in ("none", "xor", "improved"):
                measured = fig6.left.series[f"{transform} t=16"][a]
                assert measured >= theory - 0.1

    def test_no_transform_is_worst(self, fig6):
        for t in (16, 32):
            for a in (4, 8):
                none = fig6.left.series[f"none t={t}"][a]
                assert none >= fig6.left.series[f"xor t={t}"][a] - 0.05
                assert none >= fig6.left.series[f"improved t={t}"][a] - 0.05

    def test_right_panel_has_mru_and_partial(self, fig6):
        assert "mru" in fig6.right.series
        assert "partial improved t=16" in fig6.right.series
        assert "partial improved t=32" in fig6.right.series

    def test_render(self, fig6):
        text = fig6.render()
        assert "Figure 6" in text


class TestGoldenRenderings:
    """Byte-exact figure text on hand-built series.

    Pins the union-of-x grid, ``-`` for a missing point, ``:.4g``
    cells, left-justified columns, and Figure 5's right-panel lines.
    """

    SERIES = FigureSeries(
        title="Figure X. Demo",
        x_label="associativity",
        y_label="avg probes",
        series={
            "naive": {1: 1.0, 2: 1.5, 4: 2.5},
            "partial t=16": {2: 1.25, 4: 1.0625},
        },
    )

    SERIES_GOLDEN = """\
Figure X. Demo [avg probes]
===========================
associativity  naive  partial t=16
-------------  -----  ------------
1              1      -
2              1.5    1.25
4              2.5    1.062"""

    FIGURE5_RIGHT_GOLDEN = """\
Figure 5 (right). MRU-distance hit distributions f_i
   4-way: f1=0.750, f2=0.125, f3=0.062, f4=0.062
  16-way: f1=0.500, f2=0.100, f3=0.100, f4=0.050, f5=0.050, f6=0.050, \
f7=0.050, f8=0.050"""

    def test_series_with_missing_point(self):
        assert self.SERIES.render() == self.SERIES_GOLDEN

    def test_figure5(self):
        figure = Figure5(
            left=self.SERIES,
            distributions={
                4: [0.75, 0.125, 0.0625, 0.0625],
                16: [0.5, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05, 0.025,
                     0.025],
            },
        )
        assert figure.render() == (
            self.SERIES_GOLDEN + "\n\n" + self.FIGURE5_RIGHT_GOLDEN
        )
