"""The declarative table builder: cascade, formats, and legacy parity."""

import pytest

from repro.report.builder import TableBuilder


class Point:
    """Attribute-style row object."""

    def __init__(self, name, value):
        self.name = name
        self.value = value


class TestCascade:
    def test_defaults_apply(self):
        builder = TableBuilder()
        assert builder.config["fmt"] == "ascii"
        assert builder.config["float_format"] == ".4g"

    def test_preset_overrides_defaults(self):
        builder = TableBuilder(preset="github")
        assert builder.config["fmt"] == "github"

    def test_constructor_overrides_preset(self):
        builder = TableBuilder(preset="github", fmt="ascii")
        assert builder.config["fmt"] == "ascii"

    def test_render_overrides_constructor(self):
        builder = TableBuilder(preset="github")
        text = builder.render([("a", 1)], headers=["x", "y"], fmt="ascii")
        assert text == "x  y\n-  -\na  1"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            TableBuilder(preset="nope")

    def test_unknown_option_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown option"):
            TableBuilder(colour="red")
        with pytest.raises(ValueError, match="unknown option"):
            TableBuilder().render([], headers=["x"], colour="red")

    def test_runtime_columns_replace_wholesale(self):
        builder = TableBuilder(columns=[{"header": "old"}])
        text = builder.render(
            [("v",)], columns=[{"header": "new"}]
        )
        assert "new" in text and "old" not in text


class TestLookupAndFormat:
    def test_mapping_dotted_key(self):
        builder = TableBuilder(
            columns=[{"header": "region", "key": "meta.region"}]
        )
        text = builder.render([{"meta": {"region": "us-1"}}])
        assert "us-1" in text

    def test_attribute_lookup(self):
        builder = TableBuilder(
            columns=[
                {"header": "name", "key": "name"},
                {"header": "value", "key": "value"},
            ]
        )
        text = builder.render([Point("alpha", 3)])
        assert "alpha" in text and "3" in text

    def test_missing_key_renders_none_text(self):
        builder = TableBuilder(columns=[{"header": "x", "key": "absent"}])
        assert "-" in builder.render([{}])
        assert "?" in builder.render([{}], none_text="?")

    def test_per_column_format_fixes_trailing_zeros(self):
        # The historical :.4g bug: 1.0 -> "1" wobbles the column.
        builder = TableBuilder()
        legacy = builder.render([(1.0,), (1.25,)], headers=["p"])
        assert "1\n" in legacy + "\n"
        fixed = builder.render(
            [(1.0,), (1.25,)], columns=[{"header": "p", "format": ".2f"}]
        )
        assert "1.00" in fixed and "1.25" in fixed

    def test_callable_format(self):
        builder = TableBuilder(
            columns=[{"header": "sha", "format": lambda v: str(v)[:4]}]
        )
        assert "abcd" in builder.render([("abcdef0123",)])

    def test_bools_are_not_number_formatted(self):
        builder = TableBuilder(
            columns=[{"header": "flag", "format": ".2f"}]
        )
        assert "True" in builder.render([(True,)])


class TestFormats:
    ROWS = [("naive", 2.5), ("mru", 1.0)]

    def test_ascii_alignment_and_title(self):
        builder = TableBuilder(
            columns=[
                {"header": "scheme", "key": None},
                {"header": "probes", "align": "right", "format": ".2f"},
            ]
        )
        text = builder.render(self.ROWS, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert lines[-1].endswith("1.00")

    def test_github_rules_follow_alignment(self):
        builder = TableBuilder(
            fmt="github",
            columns=[
                {"header": "scheme"},
                {"header": "probes", "align": "right"},
                {"header": "note", "align": "center"},
            ],
        )
        text = builder.render([("a", 1, "b")], title="T")
        assert text.splitlines()[0] == "**T**"
        assert "| --- | ---: | :---: |" in text

    def test_github_escapes_pipes(self):
        builder = TableBuilder(fmt="github")
        text = builder.render([("a|b",)], headers=["x"])
        assert "a\\|b" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown table format"):
            TableBuilder().render([], headers=["x"], fmt="latex")

    def test_headers_required_without_columns(self):
        with pytest.raises(ValueError, match="no columns"):
            TableBuilder().render([("a",)])


class TestLegacyParity:
    """The "legacy" preset reproduces the historical renderer."""

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
