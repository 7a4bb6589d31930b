"""The benchmark trajectory as a report: sparklines, CI bands, verdict.

:class:`TrajectoryReport` turns a :class:`~repro.obs.bench.BenchHistory`
(the append-only ``BENCH_simulator.json`` trajectory) into one
observable surface: per-configuration **throughput** (requests per
second) and **latency** (median wall seconds) across commits,
each with its bootstrap confidence band, plus the regression verdict
for the newest entry.

The verdict is not a reimplementation: it calls
:func:`repro.obs.compare.compare_entries` on exactly the pair
``repro-bench-compare`` would pick by default (newest entry vs the
newest earlier entry sharing its ``config_hash``, self-comparison when
the lineage has no history), so the report and the CI gate can never
disagree about the same file.

Renderings: :meth:`~TrajectoryReport.render_ascii` (pure-ASCII
sparklines — byte-stable, suitable for terminals and golden tests) and :meth:`~TrajectoryReport.render_html` (a static page with
inline-SVG trend lines, no external assets).
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, List, Optional

from repro.obs.bench import BenchHistory
from repro.obs.compare import DEFAULT_THRESHOLD, compare_entries
from repro.report.builder import TableBuilder, sparkline

#: Version of the report JSON payload layout. Mirrored (not
#: imported — ``repro.obs`` must stay import-free of the rest of the
#: package) by ``repro.obs.validate.SUPPORTED_REPORT_SCHEMA_VERSION``;
#: a cross-check test keeps the two in lockstep.
REPORT_SCHEMA_VERSION = 1


def _series_point(
    index: int, entry: Dict[str, Any], result: Dict[str, Any]
) -> Dict[str, Any]:
    """One trajectory point of one configuration's result block."""
    timing = result.get("timing") if isinstance(result, dict) else None
    timing = timing if isinstance(timing, dict) else {}
    median = timing.get("median_seconds")
    requests = result.get("requests") if isinstance(result, dict) else None
    rps = result.get("requests_per_second") if isinstance(result, dict) else None
    if rps is None and requests and median:
        rps = requests / median
    ci_low = timing.get("ci_low_seconds")
    ci_high = timing.get("ci_high_seconds")
    return {
        "index": index,
        "git_sha": entry.get("git_sha"),
        "config_hash": entry.get("config_hash"),
        "median_seconds": median,
        "ci_low_seconds": ci_low,
        "ci_high_seconds": ci_high,
        "requests_per_second": rps,
        # The throughput band inverts the timing band: fast bound from
        # the CI's low (fast) time, slow bound from its high time.
        "rps_low": (requests / ci_high) if requests and ci_high else None,
        "rps_high": (requests / ci_low) if requests and ci_low else None,
    }


class TrajectoryReport:
    """Structured trajectory payload plus its renderings.

    Build from a history with :meth:`build`; the payload dict
    (``.data``) is the machine-readable form written by
    ``repro-report`` as ``trajectory.json`` and schema-checked by
    ``repro-obs-validate --report``.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    @classmethod
    def build(
        cls,
        history: BenchHistory,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> "TrajectoryReport":
        """Assemble the trajectory payload from ``history``.

        An empty history builds an honest empty report (zero entries,
        no verdict) rather than failing — the report must render
        before the first benchmark ever runs.
        """
        entries = history.entries
        identities = [
            {
                "index": index,
                "git_sha": entry.get("git_sha"),
                "config_hash": entry.get("config_hash"),
                "created_unix": entry.get("created_unix"),
            }
            for index, entry in enumerate(entries)
        ]
        names = sorted(
            {
                name
                for entry in entries
                for name in (entry.get("results") or {})
            }
        )
        series = []
        for name in names:
            points = [
                _series_point(index, entry, (entry.get("results") or {})[name])
                for index, entry in enumerate(entries)
                if name in (entry.get("results") or {})
            ]
            series.append({"name": name, "points": points})
        verdict: Optional[Dict[str, Any]] = None
        notes: List[str] = []
        if entries:
            candidate_index = len(entries) - 1
            located = history.baseline_for(candidate_index)
            if located is None:
                notes.append(
                    "no earlier entry with the candidate's config_hash; "
                    "falling back to self-comparison"
                )
                located = (candidate_index, entries[candidate_index])
            baseline_index, baseline = located
            verdict = compare_entries(
                baseline,
                entries[candidate_index],
                threshold=threshold,
                baseline_index=baseline_index,
                candidate_index=candidate_index,
            )
            verdict["notes"] = notes + verdict["notes"]
        return cls(
            {
                "schema_version": REPORT_SCHEMA_VERSION,
                "kind": "bench-trajectory",
                "benchmark": history.data.get("benchmark"),
                "history_schema_version": history.schema_version,
                "entry_count": len(entries),
                "entries": identities,
                "series": series,
                "verdict": verdict,
            }
        )

    @classmethod
    def from_file(cls, path, threshold: float = DEFAULT_THRESHOLD):
        """Build from a history file; a missing file is an empty one."""
        return cls.build(
            BenchHistory.load_or_create(path), threshold=threshold
        )

    # ------------------------------------------------------------------
    # views

    @property
    def verdict(self) -> Optional[str]:
        """The regression verdict string, or ``None`` (empty history)."""
        verdict = self.data.get("verdict")
        return verdict.get("verdict") if isinstance(verdict, dict) else None

    def to_json(self) -> str:
        """The payload as pretty-printed, key-sorted JSON."""
        return json.dumps(self.data, indent=2, sort_keys=True, default=repr)

    def render_ascii(self) -> str:
        """Pure-ASCII trajectory: one sparkline pair per configuration.

        Byte-stable: every number has a fixed format and nothing here
        reads the clock, so two renders of the same history are
        identical bytes.
        """
        lines: List[str] = []
        count = self.data["entry_count"]
        lines.append(
            f"bench trajectory: {self.data.get('benchmark') or '?'} "
            f"({count} entr{'y' if count == 1 else 'ies'})"
        )
        if not count:
            lines.append("  (no benchmark entries yet)")
            return "\n".join(lines)
        for block in self.data["series"]:
            points = block["points"]
            rps = [p["requests_per_second"] for p in points]
            lat = [p["median_seconds"] for p in points]
            last = points[-1]
            lines.append(f"  {block['name']}")
            lines.append(
                "    throughput  [{spark}]  {value}  ci [{lo}, {hi}] req/s".format(
                    spark=sparkline(rps),
                    value=_fmt_rps(last["requests_per_second"]),
                    lo=_fmt_rps(last["rps_low"]),
                    hi=_fmt_rps(last["rps_high"]),
                )
            )
            lines.append(
                "    median wall [{spark}]  {value}  ci [{lo}, {hi}] ms".format(
                    spark=sparkline(lat),
                    value=_fmt_ms(last["median_seconds"]),
                    lo=_fmt_ms(last["ci_low_seconds"]),
                    hi=_fmt_ms(last["ci_high_seconds"]),
                )
            )
        verdict = self.data["verdict"]
        base = verdict["baseline"]
        cand = verdict["candidate"]
        lines.append(
            "  verdict: {verdict} (baseline entry {b} sha={bs}, "
            "candidate entry {c} sha={cs})".format(
                verdict=verdict["verdict"],
                b=base["index"],
                bs=(base["git_sha"] or "?")[:12],
                c=cand["index"],
                cs=(cand["git_sha"] or "?")[:12],
            )
        )
        for row in verdict["timing"]:
            if row["status"] in ("regression", "improved"):
                lines.append(
                    "    {name}: x{ratio:.3f} {status}".format(
                        name=row["name"],
                        ratio=row["ratio"],
                        status=row["status"].upper(),
                    )
                )
        for message in verdict["probe_drift"]:
            lines.append(f"    PROBE DRIFT: {message}")
        return "\n".join(lines)

    def render_html(self, title: str = "Benchmark trajectory") -> str:
        """A self-contained static HTML page (inline CSS + SVG)."""
        body: List[str] = [f"<h1>{_html.escape(title)}</h1>"]
        count = self.data["entry_count"]
        benchmark = _html.escape(str(self.data.get("benchmark") or "?"))
        body.append(
            f"<p class='meta'>benchmark <code>{benchmark}</code> — "
            f"{count} entr{'y' if count == 1 else 'ies'}</p>"
        )
        verdict = self.data.get("verdict")
        if verdict:
            status = verdict["verdict"]
            body.append(
                f"<p class='verdict verdict-{_html.escape(status)}'>"
                f"regression verdict: <strong>{_html.escape(status)}</strong>"
                "</p>"
            )
        if not count:
            body.append("<p>(no benchmark entries yet)</p>")
            return html_page(title, "\n".join(body))
        builder = TableBuilder(fmt="html")
        columns = [
            {"header": "entry", "key": "index", "align": "right"},
            {"header": "git SHA", "key": "git_sha",
             "format": lambda v: str(v)[:12]},
            {"header": "req/s", "key": "requests_per_second",
             "format": _fmt_rps, "align": "right"},
            {"header": "median (ms)", "key": "median_seconds",
             "format": _fmt_ms, "align": "right"},
            {"header": "CI low (ms)", "key": "ci_low_seconds",
             "format": _fmt_ms, "align": "right"},
            {"header": "CI high (ms)", "key": "ci_high_seconds",
             "format": _fmt_ms, "align": "right"},
        ]
        for block in self.data["series"]:
            name = _html.escape(block["name"])
            points = block["points"]
            body.append(f"<h2>{name}</h2>")
            body.append(
                svg_trend(
                    [p["requests_per_second"] for p in points],
                    low=[p["rps_low"] for p in points],
                    high=[p["rps_high"] for p in points],
                )
            )
            body.append(builder.render(points, columns=columns))
        return html_page(title, "\n".join(body))


def _fmt_rps(value: Optional[float]) -> str:
    """Fixed-format throughput: deterministic, no locale, no drift."""
    return "-" if value is None else f"{value:.0f}"


def _fmt_ms(value: Optional[float]) -> str:
    """Seconds rendered as fixed-decimal milliseconds."""
    return "-" if value is None else f"{value * 1e3:.3f}"


#: Stylesheet for the generated trajectory page.
PAGE_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e; }
h1, h2 { font-weight: 600; }
code, pre { font-family: ui-monospace, 'SFMono-Regular', Menlo, monospace; }
pre { background: #f6f6f8; padding: 0.8rem; overflow-x: auto; }
.meta { color: #555; }
.verdict { padding: 0.4rem 0.6rem; border-radius: 4px; display: inline-block; }
.verdict-ok { background: #e4f3e6; }
.verdict-timing-regression { background: #fdecea; }
.verdict-probe-drift { background: #fdecea; font-weight: 600; }
table.report-table { border-collapse: collapse; margin: 0.8rem 0; }
table.report-table th, table.report-table td
  { border: 1px solid #d4d4dc; padding: 0.25rem 0.6rem; }
table.report-table th { background: #f0f0f4; }
svg.trend { display: block; margin: 0.4rem 0; }
"""


def html_page(title: str, body: str) -> str:
    """Wrap ``body`` in the self-contained page skeleton."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_html.escape(title)}</title>\n"
        f"<style>{PAGE_CSS}</style>\n"
        "</head>\n<body>\n"
        f"{body}\n"
        "</body>\n</html>\n"
    )


def svg_trend(
    values: List[Optional[float]],
    low: Optional[List[Optional[float]]] = None,
    high: Optional[List[Optional[float]]] = None,
    width: int = 560,
    height: int = 80,
) -> str:
    """An inline-SVG trend line with an optional confidence band.

    Pure stdlib string assembly — no plotting dependency — and
    deterministic for identical inputs.
    """
    present = [v for v in values if v is not None]
    band = [
        v
        for bounds in (low or [], high or [])
        for v in bounds
        if v is not None
    ]
    if not present:
        return ""
    lo = min(present + band)
    hi = max(present + band)
    span = (hi - lo) or 1.0
    pad = 4

    def x(index: int) -> float:
        if len(values) == 1:
            return width / 2
        return pad + index * (width - 2 * pad) / (len(values) - 1)

    def y(value: float) -> float:
        return height - pad - (value - lo) / span * (height - 2 * pad)

    def path(points: List["tuple[int, float]"]) -> str:
        return " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in points)

    parts = [
        f'<svg class="trend" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    if low and high:
        upper = [(i, v) for i, v in enumerate(high) if v is not None]
        lower = [(i, v) for i, v in enumerate(low) if v is not None]
        if upper and lower:
            ring = path(upper) + " " + path(list(reversed(lower)))
            parts.append(
                f'<polygon points="{ring}" fill="#cdd9f0" stroke="none"/>'
            )
    line = [(i, v) for i, v in enumerate(values) if v is not None]
    parts.append(
        f'<polyline points="{path(line)}" fill="none" '
        'stroke="#3558a8" stroke-width="1.5"/>'
    )
    for i, v in line:
        parts.append(
            f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="2" fill="#3558a8"/>'
        )
    parts.append("</svg>")
    return "".join(parts)
