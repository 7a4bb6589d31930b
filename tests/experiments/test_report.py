"""Tests for the table, figure-series and CSV renderers."""

import pytest

from repro.experiments.report import render_series, render_table, series_rows


class TestRenderTable:
    def test_basic(self):
        text = render_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert "30" in lines[3]

    def test_title(self):
        text = render_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"
        assert text.splitlines()[1] == "="

    def test_float_formatting(self):
        text = render_table(["x"], [[0.123456]])
        assert "0.1235" in text

    def test_column_alignment(self):
        text = render_table(["name", "v"], [["long-name", 1], ["s", 22]])
        lines = text.splitlines()
        # The value column starts at the same offset in every row.
        assert lines[2].index("1") == lines[3].index("22")

    def test_no_rows_sizes_columns_by_header(self):
        assert render_table(["abc", "d"], []) == "abc  d\n---  -"


class TestCsv:
    def test_table_to_csv(self):
        from repro.experiments.report import table_to_csv

        text = table_to_csv(["a", "b"], [[1, "x,y"], [2.5, "z"]])
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == '1,"x,y"'
        assert lines[2] == "2.5,z"

    def test_series_to_csv(self):
        from repro.experiments.report import series_to_csv

        text = series_to_csv({"s": {1: 1.5}, "t": {2: 2.5}}, x_label="x")
        lines = text.splitlines()
        assert lines[0] == "x,s,t"
        assert lines[1] == "1,1.5,"
        assert lines[2] == "2,,2.5"


class TestSeriesRows:
    SERIES = {"a": {2: 2.0, 1: 1.0}, "b": {4: 4.0, 2: None}}

    def test_union_of_x_sorted_none_is_missing(self):
        assert series_rows(self.SERIES) == [
            [1, 1.0, "-"],
            [2, 2.0, "-"],
            [4, "-", 4.0],
        ]


class TestRenderSeries:
    def test_union_of_x_values(self):
        text = render_series(
            {"a": {1: 1.0, 2: 2.0}, "b": {2: 3.0, 4: 4.0}},
            x_label="x", y_label="y",
        )
        assert "1" in text and "4" in text
        # Missing points render as '-'.
        assert "-" in text

    def test_header_names(self):
        text = render_series({"s1": {1: 1.0}}, x_label="assoc", y_label="p")
        assert "assoc" in text
        assert "s1" in text


class TestFormatsAndAlignment:
    ROWS = [("naive", 2.5), ("mru", 1.0)]

    def test_per_column_format_fixes_trailing_zeros(self):
        # The :.4g default drops trailing zeros: 1.0 -> "1" wobbles the
        # column; a fixed-decimal format keeps every row the same width.
        default = render_table(["p"], [(1.0,), (1.25,)])
        assert "1\n" in default + "\n"
        fixed = render_table(["p"], [(1.0,), (1.25,)], formats=[".2f"])
        assert "1.00" in fixed and "1.25" in fixed

    def test_format_applies_to_ints(self):
        text = render_table(["n"], [(4,)], formats=[".2f"])
        assert text.splitlines()[-1] == "4.00"

    def test_bools_are_not_number_formatted(self):
        assert "True" in render_table(["flag"], [(True,)], formats=[".2f"])

    def test_ascii_alignment_and_title(self):
        text = render_table(
            ["scheme", "probes"], self.ROWS, title="T",
            formats=[None, ".2f"], align=["left", "right"],
        )
        assert text.splitlines() == [
            "T",
            "=",
            "scheme  probes",
            "------  ------",
            "naive     2.50",
            "mru       1.00",
        ]

    def test_github_rules_follow_alignment(self):
        text = render_table(
            ["scheme", "probes"], [("a", 1)], title="T", fmt="github",
            align=["left", "right"],
        )
        assert text.splitlines() == [
            "**T**",
            "",
            "| scheme | probes |",
            "| --- | ---: |",
            "| a | 1 |",
        ]

    def test_github_escapes_pipes(self):
        text = render_table(["x"], [("a|b",)], fmt="github")
        assert "a\\|b" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown table format"):
            render_table(["x"], [], fmt="latex")


class TestLegacyParity:
    """The default ascii path reproduces the historical renderer."""

    def _old_render_table(self, headers, rows, title=""):
        # The pre-builder implementation, verbatim.
        def fmt(value):
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in rows]
        widths = [len(h) for h in headers]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(parts):
            return "  ".join(
                part.ljust(width) for part, width in zip(parts, widths)
            ).rstrip()

        out = []
        if title:
            out.append(title)
            out.append("=" * len(title))
        out.append(line(headers))
        out.append(line(["-" * w for w in widths]))
        for row in cells:
            out.append(line(row))
        return "\n".join(out)

    def test_byte_for_byte(self):
        from repro.experiments.report import render_table

        headers = ["scheme", "hits", "total", "note"]
        rows = [
            ("naive", 0.123456, 4, "x"),
            ("mru", 1.0, 17, None),
            ("partial", 2.5, 100000, True),
        ]
        for title in ("", "Probes per access"):
            assert render_table(headers, rows, title=title) == (
                self._old_render_table(headers, rows, title=title)
            )
