"""Declarative table builder with a config cascade, multi-format.

One :class:`TableBuilder` renders any structured result — sequences,
mappings, or attribute objects — as ASCII, GitHub markdown, CSV, or
HTML from a single declarative spec. Configuration cascades through
three layers, later layers winning key-by-key:

1. :data:`DEFAULTS` — the baseline every table shares;
2. a named **preset** from :data:`PRESETS` (extendable via
   :func:`register_preset`) — e.g. ``"legacy"`` reproduces the
   historical ``render_table`` output byte-for-byte, ``"paper"`` is
   the fixed-decimal layout the paper tables use;
3. **runtime overrides** — constructor and :meth:`TableBuilder.render`
   keyword arguments.

Column specs are plain dicts (``header``, optional ``key`` for
mapping/attribute lookup with dotted paths, ``format``, ``align``,
``width``) and replace wholesale at whichever cascade layer supplies
them, mirroring the kstlib ``TableBuilder`` contract that runtime
``columns=`` overrides swap the entire layout.

The per-column ``format`` spec exists to fix a long-standing
misalignment: the legacy ``render_table`` formatted every float with
``:.4g``, which drops trailing zeros (``1.0`` → ``"1"``) so columns
wobble against the paper's fixed-decimal layout. A column with
``{"format": ".2f"}`` renders every value at the same width.

Zero dependencies; pure standard library.
"""

from __future__ import annotations

import csv
import html
import io
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

#: Baseline configuration every table inherits (cascade layer 1).
DEFAULTS: Dict[str, Any] = {
    # Output format: "ascii" | "github" | "csv" | "html".
    "fmt": "ascii",
    # Column separator for the ASCII format.
    "separator": "  ",
    # Character underlining an ASCII title.
    "title_underline": "=",
    # Rendering of None cells.
    "none_text": "-",
    # Default cell alignment: "left" | "right" | "center".
    "align": "left",
    # Format spec applied to floats in columns without their own.
    "float_format": ".4g",
}

#: Named presets (cascade layer 2). Extend via :func:`register_preset`.
PRESETS: Dict[str, Dict[str, Any]] = {
    # Byte-for-byte the historical repro.experiments.report.render_table
    # output: left-justified everything, :.4g floats, two-space gutter.
    "legacy": {},
    # The paper tables' layout: numeric columns carry explicit
    # fixed-decimal formats and right alignment in their column specs;
    # the preset pins the shared cosmetics.
    "paper": {"separator": "  ", "title_underline": "="},
    # Markdown pipe tables for results_summary.md.
    "github": {"fmt": "github"},
}

_ALIGNERS: Dict[str, Callable[[str, int], str]] = {
    "left": str.ljust,
    "right": str.rjust,
    "center": str.center,
}

#: Markdown alignment markers per column alignment.
_GITHUB_RULES = {"left": "---", "right": "---:", "center": ":---:"}


def register_preset(name: str, spec: Mapping[str, Any]) -> None:
    """Register (or replace) a named preset in :data:`PRESETS`.

    Unknown option keys are rejected eagerly — a silently ignored
    preset key is a misconfigured table nobody notices.
    """
    unknown = set(spec) - set(DEFAULTS) - {"columns"}
    if unknown:
        raise ValueError(
            f"preset {name!r} has unknown option(s): {sorted(unknown)}"
        )
    PRESETS[name] = dict(spec)


def _cascade(
    preset: Optional[str], *layers: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Resolve defaults → preset → override layers into one config."""
    config = dict(DEFAULTS)
    columns: Optional[Sequence[Mapping[str, Any]]] = None
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; have {sorted(PRESETS)}"
            )
        layers = (PRESETS[preset],) + layers
    for layer in layers:
        if not layer:
            continue
        unknown = set(layer) - set(DEFAULTS) - {"columns"}
        if unknown:
            raise ValueError(f"unknown option(s): {sorted(unknown)}")
        layer = dict(layer)
        if "columns" in layer:
            columns = layer.pop("columns")
        config.update(layer)
    config["columns"] = columns
    return config


class TableBuilder:
    """Render structured rows as ASCII/markdown/CSV/HTML from one spec.

    Args:
        preset: Name of a :data:`PRESETS` entry to layer over the
            defaults.
        columns: Column specs (each a dict with ``header`` plus
            optional ``key``, ``format``, ``align``, ``width``).
            Supplied here they become the builder's layout; a
            ``columns=`` at :meth:`render` replaces them wholesale.
        **overrides: Any :data:`DEFAULTS` option (``fmt``,
            ``separator``, ``float_format``, …).
    """

    def __init__(
        self,
        preset: Optional[str] = None,
        columns: Optional[Sequence[Mapping[str, Any]]] = None,
        **overrides: Any,
    ) -> None:
        if columns is not None:
            overrides = dict(overrides, columns=columns)
        self.preset = preset
        self.config = _cascade(preset, overrides)

    # ------------------------------------------------------------------
    # cell access and formatting

    @staticmethod
    def _lookup(row: Any, column: Mapping[str, Any], index: int) -> Any:
        """The raw value of ``column`` in ``row``.

        Mappings resolve the column ``key`` as a dotted path
        (``"metadata.region"``); other objects resolve it as an
        attribute; columns without a ``key`` index positionally.
        """
        key = column.get("key")
        if key is None:
            try:
                return row[index]
            except (IndexError, KeyError, TypeError):
                return None
        if isinstance(row, Mapping):
            value: Any = row
            for part in str(key).split("."):
                if isinstance(value, Mapping) and part in value:
                    value = value[part]
                else:
                    return None
            return value
        return getattr(row, str(key), None)

    @staticmethod
    def _format_cell(
        value: Any, column: Mapping[str, Any], config: Dict[str, Any]
    ) -> str:
        """One cell's text under the column's (or table's) format."""
        if value is None:
            return config["none_text"]
        spec = column.get("format")
        if callable(spec):
            return str(spec(value))
        if spec and isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            return format(value, spec)
        if isinstance(value, float):
            return format(value, config["float_format"])
        return str(value)

    # ------------------------------------------------------------------
    # rendering

    def render(
        self,
        rows: Sequence[Any],
        columns: Optional[Sequence[Mapping[str, Any]]] = None,
        headers: Optional[Sequence[str]] = None,
        title: str = "",
        **overrides: Any,
    ) -> str:
        """Render ``rows`` under the resolved configuration.

        Args:
            rows: Sequence of row objects (sequences, mappings, or
                attribute objects — see :meth:`_lookup`).
            columns: Runtime column specs; replace the preset's and the
                constructor's wholesale (cascade layer 3).
            headers: Shorthand for ``columns=[{"header": h}, ...]``
                (positional cells, table-level formatting) — the
                legacy ``render_table`` calling convention.
            title: Optional table title (underlined in ASCII, bold in
                markdown, a ``<caption>`` in HTML, ignored by CSV).
            **overrides: Per-call option overrides (``fmt=...`` etc.).
        """
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown option(s): {sorted(unknown)}")
        config = dict(self.config, **overrides)
        specs = columns if columns is not None else config["columns"]
        if specs is None:
            if headers is None:
                raise ValueError("no columns: pass columns= or headers=")
            specs = [{"header": h} for h in headers]
        cells = [
            [
                self._format_cell(
                    self._lookup(row, column, index), column, config
                )
                for index, column in enumerate(specs)
            ]
            for row in rows
        ]
        fmt = config["fmt"]
        if fmt == "ascii":
            return self._render_ascii(specs, cells, title, config)
        if fmt == "github":
            return self._render_github(specs, cells, title, config)
        if fmt == "csv":
            return self._render_csv(specs, cells)
        if fmt == "html":
            return self._render_html(specs, cells, title, config)
        raise ValueError(f"unknown table format {fmt!r}")

    def _render_ascii(
        self,
        specs: Sequence[Mapping[str, Any]],
        cells: List[List[str]],
        title: str,
        config: Dict[str, Any],
    ) -> str:
        widths = [
            max(
                len(str(column["header"])),
                int(column.get("width", 0)),
                *(len(row[index]) for row in cells),
            )
            if cells
            else max(len(str(column["header"])), int(column.get("width", 0)))
            for index, column in enumerate(specs)
        ]

        def line(parts: Sequence[str], aligned: bool = True) -> str:
            out = []
            for index, part in enumerate(parts):
                align = (
                    specs[index].get("align", config["align"])
                    if aligned
                    else "left"
                )
                out.append(_ALIGNERS[align](part, widths[index]))
            return config["separator"].join(out).rstrip()

        lines: List[str] = []
        if title:
            lines.append(title)
            lines.append(config["title_underline"] * len(title))
        lines.append(
            line([str(c["header"]) for c in specs], aligned=False)
        )
        lines.append(line(["-" * w for w in widths], aligned=False))
        for row in cells:
            lines.append(line(row))
        return "\n".join(lines)

    @staticmethod
    def _render_github(
        specs: Sequence[Mapping[str, Any]],
        cells: List[List[str]],
        title: str,
        config: Dict[str, Any],
    ) -> str:
        def md_row(parts: Sequence[str]) -> str:
            return "| " + " | ".join(p.replace("|", "\\|") for p in parts) + " |"

        lines: List[str] = []
        if title:
            lines.append(f"**{title}**")
            lines.append("")
        lines.append(md_row([str(c["header"]) for c in specs]))
        lines.append(
            md_row(
                [
                    _GITHUB_RULES[c.get("align", config["align"])]
                    for c in specs
                ]
            )
        )
        for row in cells:
            lines.append(md_row(row))
        return "\n".join(lines)

    @staticmethod
    def _render_csv(
        specs: Sequence[Mapping[str, Any]], cells: List[List[str]]
    ) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([str(c["header"]) for c in specs])
        for row in cells:
            writer.writerow(row)
        return buffer.getvalue()

    @staticmethod
    def _render_html(
        specs: Sequence[Mapping[str, Any]],
        cells: List[List[str]],
        title: str,
        config: Dict[str, Any],
    ) -> str:
        def td(tag: str, column: Mapping[str, Any], text: str) -> str:
            align = column.get("align", config["align"])
            style = "" if align == "left" else f' style="text-align:{align}"'
            return f"<{tag}{style}>{html.escape(text)}</{tag}>"

        lines = ['<table class="report-table">']
        if title:
            lines.append(f"<caption>{html.escape(title)}</caption>")
        lines.append("<thead><tr>")
        for column in specs:
            lines.append(td("th", column, str(column["header"])))
        lines.append("</tr></thead>")
        lines.append("<tbody>")
        for row in cells:
            lines.append("<tr>")
            for column, text in zip(specs, row):
                lines.append(td("td", column, text))
            lines.append("</tr>")
        lines.append("</tbody>")
        lines.append("</table>")
        return "\n".join(lines)


#: Ten brightness levels, pure ASCII — rendered reports must stay
#: byte-stable across terminals, so no unicode block elements.
SPARK_CHARS = " .:-=+*#%@"


def sparkline(values: Sequence[Optional[float]], chars: str = SPARK_CHARS) -> str:
    """One character per value, min-max scaled over ``chars``.

    ``None`` values (missing points) render as a space. A flat series
    (or a single point) renders at the middle level — honest about
    "no observable trend". Deterministic: equal inputs, equal bytes.
    """
    present = [v for v in values if v is not None]
    if not present:
        return " " * len(values)
    lo, hi = min(present), max(present)
    out = []
    for value in values:
        if value is None:
            out.append(" ")
        elif hi == lo:
            out.append(chars[len(chars) // 2])
        else:
            level = int((value - lo) / (hi - lo) * (len(chars) - 1))
            out.append(chars[level])
    return "".join(out)
