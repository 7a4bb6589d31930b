"""Tests for table builders."""

import pytest

from repro.experiments.tables import (
    Table3,
    Table3Row,
    Table4,
    Table4Row,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
)


class TestTable1:
    def test_matches_paper_values(self):
        table = build_table1()
        by_method = {r.method: r for r in table.rows}
        assert by_method["Naive"].hit_probes == 2.5
        assert by_method["Naive"].miss_probes == 4.0
        assert round(by_method["Partial (k=4)"].hit_probes, 2) == 2.09
        assert by_method["Partial (k=4)"].miss_probes == 1.25
        assert round(by_method["Partial (k=2)"].hit_probes, 2) == 2.88
        assert round(by_method["Partial w/Subsets (k=4)"].hit_probes, 2) == 2.72
        assert by_method["Partial w/Subsets (k=4)"].miss_probes == 2.5

    def test_mru_within_table_range(self):
        table = build_table1()
        mru = next(r for r in table.rows if r.method == "MRU")
        assert 2.0 <= mru.hit_probes <= 5.0
        assert mru.miss_probes == 5.0

    def test_render(self):
        text = build_table1().render()
        assert "Traditional" in text
        assert "2.5" in text


class TestTable2:
    def test_cells_complete(self):
        table = build_table2()
        assert len(table.cells) == 8

    def test_render_contains_symbolic_timings(self):
        text = build_table2().render()
        assert "150+50x" in text
        assert "65+55y" in text
        assert "42" in text


class TestTable3:
    def test_rows_for_all_l1_geometries(self, runner):
        table = build_table3(runner)
        labels = {r.geometry for r in table.rows}
        assert labels == {"4K-16", "16K-16", "16K-32"}

    def test_miss_ratios_ordered_by_capacity(self, runner):
        table = build_table3(runner)
        ratios = {r.geometry: r.measured_miss_ratio for r in table.rows}
        assert ratios["4K-16"] > ratios["16K-16"]
        assert ratios["16K-16"] > ratios["16K-32"]

    def test_render(self, runner):
        text = build_table3(runner).render()
        assert "cold-start segments" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def table(self, runner):
        # Two configs x two associativities keeps the test fast while
        # exercising the full build path.
        return build_table4(
            runner,
            associativities=(2, 4),
            configs=(("16K-16", "64K-32"), ("4K-16", "64K-16")),
        )

    def test_row_count(self, table):
        assert len(table.rows) == 4

    def test_rows_for_filters(self, table):
        assert len(table.rows_for(2)) == 2
        assert len(table.rows_for(4)) == 2
        assert table.rows_for(16) == []

    def test_probe_sanity(self, table):
        for row in table.rows:
            a = row.associativity
            # "Hits" columns count write-backs as zero-probe hits
            # (paper accounting), so they can dip below one probe.
            assert 0.0 < row.naive_hits <= a
            assert 0.0 < row.mru_hits <= a + 1
            assert row.partial_misses >= 1.0
            assert 0 < row.global_miss_ratio < row.local_miss_ratio

    def test_best_total_consistent(self, table):
        for row in table.rows:
            totals = {
                "naive": row.naive_total,
                "mru": row.mru_total,
                "partial": row.partial_total,
            }
            assert totals[row.best_total] == min(totals.values())

    def test_render_marks_best(self, table):
        text = table.render()
        assert "*" in text
        assert "Table 4 (2-way" in text
        assert "Table 4 (4-way" in text


class TestGoldenRenderings:
    """Byte-exact golden output for Tables 1-3 (the fixed-decimal fix).

    These pin the per-column format specs: a regression back to :.4g
    (which drops trailing zeros and wobbles the columns) or a changed
    alignment shows up as a diff here.
    """

    TABLE1_GOLDEN = """\
Table 1. Performance of Set-Associativity Implementations (expected probes, t=16)
=================================================================================
Method                   Assoc  Subsets  TagMemWidth  Hit   Miss
-----------------------  -----  -------  -----------  ----  ----
Traditional                  4        1           64  1.00  1.00
Naive                        4        1           16  2.50  4.00
MRU                          4        1           16  2.73  5.00
Partial (k=4)                4        1           16  2.09  1.25
Partial (k=2)                8        1           16  2.88  3.00
Partial w/Subsets (k=4)      8        2           16  2.72  2.50"""

    TABLE2_GOLDEN = """\
Table 2. Trial Set-Associativity Implementations (1M 24-bit tags, 4-way)
========================================================================
                       Direct  Traditional  MRU          Partial
---------------------  ------  -----------  -----------  -------
DRAM Access time (ns)     136          132      150+50x  150+50y
DRAM Cycle time (ns)      230          190  250+50(x+u)  250+50y
DRAM Memory packages        3           12            3        3
DRAM Support packages      15           30           19       18
DRAM Total packages        18           42           22       21
SRAM Access time (ns)      61           84       65+55x   65+55y
SRAM Cycle time (ns)       85          100   75+55(x+u)   75+55y
SRAM Memory packages        6            6            6        6
SRAM Support packages      14           31           19       18
SRAM Total packages        20           37           25       24"""

    TABLE3_GOLDEN = """\
Workload: 1 cold-start segments, 16100 references total
Table 3. Trace and level-one cache characteristics
==================================================
L1 geometry  Measured miss ratio  Paper miss ratio
-----------  -------------------  ----------------
16K-16                    0.0525            0.0520
32K-32                    0.0330                 -"""

    def test_table1_golden(self):
        assert build_table1().render() == self.TABLE1_GOLDEN

    def test_table2_golden(self):
        assert build_table2().render() == self.TABLE2_GOLDEN

    def test_table3_golden(self):
        table = Table3(
            references=16100,
            segments=1,
            rows=[
                Table3Row("16K-16", 0.0525, 0.052),
                Table3Row("32K-32", 0.033, None),
            ],
        )
        assert table.render() == self.TABLE3_GOLDEN

    def test_table1_github_format(self):
        text = build_table1().render(fmt="github")
        lines = text.splitlines()
        assert lines[0].startswith("**Table 1.")
        assert "| --- | ---: | ---: | ---: | ---: | ---: |" in text
        assert "| Traditional | 4 | 1 | 64 | 1.00 | 1.00 |" in text

    def test_table3_github_keeps_workload_paragraph(self):
        table = Table3(
            references=100,
            segments=2,
            rows=[Table3Row("16K-16", 0.05, None)],
        )
        text = table.render(fmt="github")
        # The preamble must be its own paragraph or markdown folds it
        # into the table.
        assert text.startswith(
            "Workload: 2 cold-start segments, 100 references total\n\n"
        )
        assert "| 0.0500 | - |" in text


class TestTable4Golden:
    """Byte-exact Table 4 on hand-built rows.

    Pins the ``:.4g`` cells, left-justified columns, the ``*`` marker on
    a row whose best total is the partial scheme, and one section per
    associativity.
    """

    ROWS = [
        Table4Row("4K-16", "64K-16", 2, 0.0123456, 0.25, 0.2101, 1.0, 1.5,
                  0.9375, 1.25, 1.125, 1.0, 1.3333),
        Table4Row("16K-32", "256K-32", 2, 0.00517, 0.4, 0.195, 1.2, 2.0,
                  0.95, 1.125, 0.875, 1.0, 1.0),
        Table4Row("16K-16", "128K-32", 8, 0.009, 0.1875, 0.22, 3.75, 6.625,
                  1.5, 2.875, 1.625, 2.5, 12345.678),
    ]

    GOLDEN = """\
Table 4 (2-way set-associative level two cache)
===============================================
Configuration   Global   Local  FracWB  Nv-Hit  Nv-Tot  MRU-Hit  MRU-Tot  Pt-Hit  Pt-Miss  Pt-Tot
--------------  -------  -----  ------  ------  ------  -------  -------  ------  -------  ------
4K-16 64K-16    0.01235  0.25   0.2101  1       1.5     0.9375   1.25     1.125   1        1.333
16K-32 256K-32  0.00517  0.4    0.195   1.2     2       0.95     1.125    0.875   1        *1

Table 4 (8-way set-associative level two cache)
===============================================
Configuration   Global  Local   FracWB  Nv-Hit  Nv-Tot  MRU-Hit  MRU-Tot  Pt-Hit  Pt-Miss  Pt-Tot
--------------  ------  ------  ------  ------  ------  -------  -------  ------  -------  ---------
16K-16 128K-32  0.009   0.1875  0.22    3.75    6.625   1.5      2.875    1.625   2.5      1.235e+04"""

    def test_render_golden(self):
        assert Table4(rows=list(self.ROWS)).render() == self.GOLDEN
