"""Table and CSV rendering for the paper's tables and figure series.

Every experiment builder returns structured data. :func:`render_table`
prints it as a monospace (``ascii``) or GitHub markdown (``github``)
table that parallels the paper's layout; the figure builders and the
results summary render their data series through the same grid
(:func:`series_rows`), and the CSV helpers write it out for external
plotting tools.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence

_ALIGNERS = {"left": str.ljust, "right": str.rjust}

#: Markdown alignment markers per column alignment.
_GITHUB_RULES = {"left": "---", "right": "---:"}


def _format_cell(value: object, spec: Optional[str]) -> str:
    """One cell's text: numbers under ``spec``, everything else ``str``.

    Without a spec, floats get four significant digits and ints print
    as they are. Bools are not numbers here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if spec:
        return format(value, spec)
    return format(value, ".4g") if isinstance(value, float) else str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    fmt: str = "ascii",
    formats: Optional[Sequence[Optional[str]]] = None,
    align: Optional[Sequence[str]] = None,
) -> str:
    """Render positional rows as a monospace or markdown table.

    Args:
        headers: Column headers.
        rows: One sequence of cells per row, in header order.
        title: Optional title, underlined with ``=`` in ``ascii`` and
            bold in ``github``.
        fmt: ``"ascii"`` (auto-width columns, two-space gutter) or
            ``"github"`` (a markdown pipe table).
        formats: A format spec per column (``".2f"``), applied to its
            numbers; ``None`` (or no list) means four significant
            digits for floats and ``str`` for ints.
        align: ``"left"`` or ``"right"`` per column (default all
            left). In ``ascii`` the header and rule lines stay
            left-justified.
    """
    if fmt not in ("ascii", "github"):
        raise ValueError(f"unknown table format {fmt!r}")
    formats = formats or [None] * len(headers)
    align = align or ["left"] * len(headers)
    cells = [
        [_format_cell(value, spec) for value, spec in zip(row, formats)]
        for row in rows
    ]

    if fmt == "github":

        def md_row(parts: Sequence[str]) -> str:
            return "| " + " | ".join(p.replace("|", "\\|") for p in parts) + " |"

        lines = [f"**{title}**", ""] if title else []
        lines.append(md_row(headers))
        lines.append(md_row([_GITHUB_RULES[a] for a in align]))
        lines.extend(md_row(row) for row in cells)
        return "\n".join(lines)

    widths = [
        max([len(header)] + [len(row[index]) for row in cells])
        for index, header in enumerate(headers)
    ]

    def line(parts: Sequence[str], aligns: Sequence[str]) -> str:
        return "  ".join(
            _ALIGNERS[a](part, width)
            for part, a, width in zip(parts, aligns, widths)
        ).rstrip()

    left = ["left"] * len(headers)
    lines = [title, "=" * len(title)] if title else []
    lines.append(line(headers, left))
    lines.append(line(["-" * w for w in widths], left))
    lines.extend(line(row, align) for row in cells)
    return "\n".join(lines)


def series_rows(
    series: Dict[str, Dict[object, float]], missing: object = "-"
) -> List[List[object]]:
    """The union-of-x grid behind every figure-series table and CSV.

    One row per x value (the union of all series' keys, sorted), one
    column per series, ``missing`` where a series has no point.
    """
    xs = sorted({x for points in series.values() for x in points})
    rows: List[List[object]] = []
    for x in xs:
        values = [points.get(x) for points in series.values()]
        rows.append([x] + [missing if v is None else v for v in values])
    return rows


def render_series(
    series: Dict[str, Dict[object, float]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render figure data series as a table: one column per series.

    ``series`` maps series name to {x: y}; missing points show ``-``.
    """
    return render_table(
        [x_label] + list(series), series_rows(series), title=title or y_label
    )


def table_to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV text (RFC 4180 quoting via the csv module)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def series_to_csv(series: Dict[str, Dict[object, float]], x_label: str) -> str:
    """Render figure series as CSV: one column per series, blank for
    missing points."""
    return table_to_csv(
        [x_label] + list(series), series_rows(series, missing="")
    )
