"""The ``repro-serve`` operator dashboard: one composed view.

Takes the service's operational snapshot (:meth:`SimulationService.status`),
the job table, and the benchmark trajectory
(:class:`~repro.report.trajectory.TrajectoryReport`) and renders them
as one surface in three forms:

- :func:`build_dashboard_payload` — the machine-readable JSON document
  behind ``GET /dashboard.json`` (schema-checked by
  ``repro-obs-validate --dashboard``);
- :func:`render_dashboard_text` — the ``GET /dashboard.txt`` view:
  pure ASCII, and **byte-stable** — two renders of the same service
  state are identical bytes, so it can be diffed, golden-tested, and
  watched with ``watch``. Anything time-varying under a fixed state
  (breaker ``retry_after`` countdowns, "now"-relative ages) is
  deliberately excluded;
- :func:`render_dashboard_html` — the ``GET /dashboard`` page, static
  HTML with inline CSS/SVG, no external assets.

Import layering: stdlib + :mod:`repro.report.builder`/``trajectory``
only — the service imports this module, never the reverse.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, List, Optional

from repro.report.builder import TableBuilder
from repro.report.trajectory import TrajectoryReport, html_page

#: Version of the ``/dashboard.json`` payload layout. Mirrored by
#: ``repro.obs.validate.SUPPORTED_DASHBOARD_SCHEMA_VERSION`` (the
#: validator must not import this package); a cross-check test keeps
#: them in lockstep. v2 added the ``status.latency`` quantile block.
#: v3 added an optional per-shard table that nothing emits any more;
#: the number stays so existing v3 documents keep validating.
DASHBOARD_SCHEMA_VERSION = 3

#: The job-table layout, shared by the text and HTML renderings.
_JOB_COLUMNS = [
    {"header": "id", "key": "id"},
    {"header": "status", "key": "status"},
    {"header": "points", "key": "points", "align": "right"},
    {"header": "config", "key": "config_hash"},
    {"header": "wall (s)", "key": "wall_seconds", "format": ".3f",
     "align": "right"},
    {"header": "error", "key": "error"},
]

#: The latency-quantile table layout (text and HTML renderings).
_LATENCY_COLUMNS = [
    {"header": "phase", "key": "phase"},
    {"header": "count", "key": "count", "align": "right"},
    {"header": "p50 (s)", "key": "p50", "format": ".4f", "align": "right"},
    {"header": "p95 (s)", "key": "p95", "format": ".4f", "align": "right"},
    {"header": "p99 (s)", "key": "p99", "format": ".4f", "align": "right"},
    {"header": "p999 (s)", "key": "p999", "format": ".4f", "align": "right"},
]


def _latency_rows(status: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The ``status.latency`` block as display rows, phase order kept.

    Metric names shorten to their phase (``latency.job_seconds`` →
    ``job``). Values come from recorded stamps, never the current
    clock, so the rows are byte-stable under a fixed service state.
    """
    rows = []
    for name, summary in (status.get("latency") or {}).items():
        phase = name
        if phase.startswith("latency."):
            phase = phase[len("latency."):]
        if phase.endswith("_seconds"):
            phase = phase[: -len("_seconds")]
        rows.append({
            "phase": phase,
            "count": summary.get("count", 0),
            "p50": summary.get("p50", 0.0),
            "p95": summary.get("p95", 0.0),
            "p99": summary.get("p99", 0.0),
            "p999": summary.get("p999", 0.0),
        })
    return rows


def _job_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """A job record reduced to byte-stable display fields.

    ``wall_seconds`` is only computed from the job's own recorded
    start/finish stamps — never against the current clock — so a
    finished job renders identically forever and a running one shows
    ``-`` instead of a creeping age.
    """
    started = record.get("started_unix")
    finished = record.get("finished_unix")
    wall = (finished - started) if started and finished else None
    return {
        "id": record.get("id"),
        "status": record.get("status"),
        "points": record.get("points"),
        "config_hash": record.get("config_hash"),
        "wall_seconds": wall,
        "error": record.get("error"),
    }


def build_dashboard_payload(
    status: Dict[str, Any],
    jobs: List[Dict[str, Any]],
    trajectory: Optional[TrajectoryReport] = None,
) -> Dict[str, Any]:
    """Compose the machine-readable dashboard document."""
    return {
        "schema_version": DASHBOARD_SCHEMA_VERSION,
        "kind": "service-dashboard",
        "status": status,
        "jobs": jobs,
        "trajectory": trajectory.data if trajectory is not None else None,
    }


def render_dashboard_text(payload: Dict[str, Any]) -> str:
    """The byte-stable ASCII dashboard (``GET /dashboard.txt``)."""
    status = payload["status"]
    lines: List[str] = []
    title = "repro-serve dashboard"
    lines.append(title)
    lines.append("=" * len(title))
    ready = status.get("ready")
    lines.append(
        "ready: {state} ({reason})".format(
            state="yes" if ready else "NO",
            reason=status.get("reason"),
        )
    )
    queue = status.get("queue") or {}
    lines.append(
        "queue: {depth}/{capacity} queued"
        " (watermarks {low}/{high}, shedding={shed}, closed={closed})".format(
            depth=queue.get("depth"),
            capacity=queue.get("capacity"),
            low=queue.get("low_watermark"),
            high=queue.get("high_watermark"),
            shed="yes" if queue.get("shedding") else "no",
            closed="yes" if queue.get("closed") else "no",
        )
    )
    for name, breaker in sorted((status.get("breakers") or {}).items()):
        # retry_after is a live countdown — the one breaker field that
        # changes under a fixed state, so the stable view omits it.
        lines.append(
            "breaker {name}: {state}"
            " ({failures}/{threshold} consecutive failures)".format(
                name=name,
                state=breaker.get("state"),
                failures=breaker.get("consecutive_failures"),
                threshold=breaker.get("failure_threshold"),
            )
        )
    replay = status.get("replay") or {}
    counters = replay.get("counters") or {}
    lines.append(
        "replay: artifact hits/misses {hits}/{misses}".format(
            hits=counters.get("miss_stream.artifact_hits", 0),
            misses=counters.get("miss_stream.artifact_misses", 0),
        )
    )
    latency_rows = _latency_rows(status)
    if latency_rows:
        lines.append("")
        lines.append(
            TableBuilder().render(
                latency_rows,
                columns=_LATENCY_COLUMNS,
                title="latency quantiles",
            )
        )
    jobs = payload.get("jobs") or []
    lines.append("")
    if jobs:
        lines.append(
            TableBuilder().render(
                [_job_view(record) for record in jobs],
                columns=_JOB_COLUMNS,
                title=f"jobs ({len(jobs)})",
            )
        )
    else:
        lines.append("jobs: none submitted")
    lines.append("")
    trajectory = payload.get("trajectory")
    if trajectory is not None:
        lines.append(TrajectoryReport(trajectory).render_ascii())
    else:
        lines.append("bench trajectory: no history configured")
    lines.append("")
    return "\n".join(lines)


def render_dashboard_html(payload: Dict[str, Any]) -> str:
    """The ``GET /dashboard`` page: the same facts as HTML."""
    status = payload["status"]
    ready = status.get("ready")
    body: List[str] = ["<h1>repro-serve dashboard</h1>"]
    body.append(
        "<p class='verdict verdict-{cls}'>ready: "
        "<strong>{state}</strong> ({reason})</p>".format(
            cls="ok" if ready else "timing-regression",
            state="yes" if ready else "NO",
            reason=_html.escape(str(status.get("reason"))),
        )
    )
    queue = status.get("queue") or {}
    body.append(
        "<p class='meta'>queue {depth}/{capacity} queued — "
        "shedding {shed}, closed {closed}</p>".format(
            depth=queue.get("depth"),
            capacity=queue.get("capacity"),
            shed="yes" if queue.get("shedding") else "no",
            closed="yes" if queue.get("closed") else "no",
        )
    )
    breaker_rows = [
        {
            "name": name,
            "state": breaker.get("state"),
            "consecutive_failures": breaker.get("consecutive_failures"),
            "failure_threshold": breaker.get("failure_threshold"),
        }
        for name, breaker in sorted((status.get("breakers") or {}).items())
    ]
    builder = TableBuilder(fmt="html")
    body.append("<h2>Breakers</h2>")
    body.append(
        builder.render(
            breaker_rows,
            columns=[
                {"header": "breaker", "key": "name"},
                {"header": "state", "key": "state"},
                {"header": "consecutive failures",
                 "key": "consecutive_failures", "align": "right"},
                {"header": "threshold", "key": "failure_threshold",
                 "align": "right"},
            ],
        )
    )
    replay = status.get("replay") or {}
    counters = replay.get("counters") or {}
    body.append("<h2>Stream artifacts</h2>")
    body.append(
        builder.render(
            [
                ("stream artifact hits",
                 counters.get("miss_stream.artifact_hits", 0)),
                ("stream artifact misses",
                 counters.get("miss_stream.artifact_misses", 0)),
            ],
            headers=["counter", "value"],
        )
    )
    latency_rows = _latency_rows(status)
    if latency_rows:
        body.append("<h2>Latency quantiles</h2>")
        body.append(
            builder.render(latency_rows, columns=_LATENCY_COLUMNS)
        )
    jobs = payload.get("jobs") or []
    body.append(f"<h2>Jobs ({len(jobs)})</h2>")
    if jobs:
        body.append(
            builder.render(
                [_job_view(record) for record in jobs],
                columns=_JOB_COLUMNS,
            )
        )
    else:
        body.append("<p>(none submitted)</p>")
    body.append("<h2>Benchmark trajectory</h2>")
    trajectory = payload.get("trajectory")
    if trajectory is not None:
        report = TrajectoryReport(trajectory)
        body.append(f"<pre>{_html.escape(report.render_ascii())}</pre>")
    else:
        body.append("<p>(no history configured)</p>")
    body.append("<h2>Raw metrics</h2>")
    metrics = status.get("metrics") or {}
    body.append(
        "<pre>{}</pre>".format(
            _html.escape(json.dumps(metrics, indent=2, sort_keys=True))
        )
    )
    return html_page("repro-serve dashboard", "\n".join(body))
