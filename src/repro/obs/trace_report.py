"""``repro-trace-report``: cross-run analytics over JSONL span traces.

A single trace answers "where did *this* run spend its time"; this
module answers the cross-run questions — which phases got slower
between two runs, where wall time diverges from CPU time (I/O,
contention, or pool idling rather than compute), and what the merged
shape of many runs looks like as one ASCII flame.

Aggregation is by span *path* (``sweep/l2_replay``, the
:attr:`~repro.obs.spans.SpanRecord.path` of each record). All input is
the JSONL trace format written by :meth:`~repro.obs.spans.Tracer.write_jsonl`
and schema-checked by :mod:`repro.obs.validate`.

Usage::

    repro-trace-report run_a/trace.jsonl run_b/trace.jsonl
    repro-trace-report obs/*.trace.jsonl --top 10 --json report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.jsonl import read_jsonl
from repro.obs.validate import validate_span


def aggregate_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Fold span records into per-path totals, insertion-ordered.

    Returns ``{path: {"count", "wall_seconds", "cpu_seconds"}}`` with
    paths in first-appearance order (the flame reads top-down the way
    the run unfolded).
    """
    phases: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = phases.setdefault(
            record["path"],
            {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0},
        )
        entry["count"] += 1
        entry["wall_seconds"] += record["wall_seconds"]
        entry["cpu_seconds"] += record["cpu_seconds"]
    return phases


def load_trace(path) -> List[Dict[str, Any]]:
    """Read and schema-check one JSONL trace; raises on invalid input.

    Malformed JSONL raises :class:`ValueError` from the reader;
    schema-invalid records raise :class:`ValueError` with the first
    validation message, so a truncated or wrong-format file fails
    loudly instead of skewing the aggregate.
    """
    records = []
    for index, record in enumerate(read_jsonl(path)):
        errors = validate_span(record, where=f"{path}:{index + 1}")
        if errors:
            raise ValueError(errors[0])
        records.append(record)
    return records


def merge_aggregates(
    aggregates: Iterable[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Combine per-run aggregates into one (counts and times add)."""
    merged: Dict[str, Dict[str, float]] = {}
    for aggregate in aggregates:
        for path, entry in aggregate.items():
            target = merged.setdefault(
                path, {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0}
            )
            target["count"] += entry["count"]
            target["wall_seconds"] += entry["wall_seconds"]
            target["cpu_seconds"] += entry["cpu_seconds"]
    return merged


def top_deltas(
    baseline: Dict[str, Dict[str, float]],
    candidate: Dict[str, Dict[str, float]],
    top: int = 5,
) -> List[Dict[str, Any]]:
    """Phases ranked by wall-time growth from ``baseline`` to ``candidate``.

    Each row carries both absolute and relative deltas; phases present
    on only one side are included (treated as 0 on the missing side),
    since a phase appearing or vanishing is itself an attribution
    signal. Sorted by absolute wall delta, largest growth first.
    """
    rows = []
    for path in sorted(set(baseline) | set(candidate)):
        base_wall = baseline.get(path, {}).get("wall_seconds", 0.0)
        cand_wall = candidate.get(path, {}).get("wall_seconds", 0.0)
        delta = cand_wall - base_wall
        rows.append(
            {
                "path": path,
                "baseline_wall_seconds": base_wall,
                "candidate_wall_seconds": cand_wall,
                "delta_seconds": delta,
                "ratio": (cand_wall / base_wall) if base_wall > 0 else None,
                "only_in": (
                    "candidate" if path not in baseline
                    else "baseline" if path not in candidate
                    else None
                ),
            }
        )
    rows.sort(key=lambda row: row["delta_seconds"], reverse=True)
    return rows[:top]


def wall_cpu_split(aggregate: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Totals and the CPU/wall ratio of one aggregate.

    A ratio near 1.0 means compute-bound; well below 1.0 means the
    wall time went somewhere else (I/O, sleeping, a worker pool the
    parent waited on).
    """
    wall = sum(entry["wall_seconds"] for entry in aggregate.values())
    cpu = sum(entry["cpu_seconds"] for entry in aggregate.values())
    return {
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "cpu_over_wall": (cpu / wall) if wall > 0 else 0.0,
    }


def flame(aggregate: Dict[str, Dict[str, float]], width: int = 40) -> str:
    """ASCII flame of an aggregate (one run's, or several merged): one
    bar per path, scaled to the largest wall total. At ``width=24``::

        sweep            ########################    1.204s x1
        sweep/l2_replay  ##########                  0.512s x4
    """
    if not aggregate:
        return "(no spans recorded)"
    longest = max(len(path) for path in aggregate)
    peak = max(e["wall_seconds"] for e in aggregate.values()) or 1.0
    lines = []
    for path, entry in aggregate.items():
        bar = "#" * max(1, int(round(width * entry["wall_seconds"] / peak)))
        lines.append(
            f"{path:<{longest}}  {bar:<{width}} "
            f"{entry['wall_seconds']:8.3f}s x{entry['count']}"
        )
    return "\n".join(lines)


def build_report(
    paths: List[str], top: int = 5
) -> Dict[str, Any]:
    """Load, aggregate, and cross-compare the given trace files.

    Returns the machine-readable report document: one ``runs`` item
    per trace (per-phase aggregate + wall/CPU split), a ``regressions``
    block comparing the first trace to the last when two or more are
    given, and the ``merged`` aggregate across all runs.
    """
    runs = []
    aggregates = []
    for path in paths:
        aggregate = aggregate_trace(load_trace(path))
        aggregates.append(aggregate)
        runs.append(
            {
                "trace": str(path),
                "phases": aggregate,
                "totals": wall_cpu_split(aggregate),
            }
        )
    merged = merge_aggregates(aggregates)
    report: Dict[str, Any] = {
        "runs": runs,
        "merged": {
            "phases": merged,
            "totals": wall_cpu_split(merged),
        },
    }
    if len(aggregates) >= 2:
        report["regressions"] = {
            "baseline_trace": str(paths[0]),
            "candidate_trace": str(paths[-1]),
            "top": top_deltas(aggregates[0], aggregates[-1], top=top),
        }
    return report


def render_report(report: Dict[str, Any], width: int = 40) -> str:
    """Terminal rendering of a :func:`build_report` document."""
    lines = []
    for run in report["runs"]:
        totals = run["totals"]
        lines.append(
            f"== {run['trace']}  "
            f"wall {totals['wall_seconds']:.3f}s  "
            f"cpu {totals['cpu_seconds']:.3f}s  "
            f"(cpu/wall {totals['cpu_over_wall']:.2f})"
        )
    regressions = report.get("regressions")
    if regressions:
        lines.append(
            f"\ntop phase deltas: {regressions['baseline_trace']} -> "
            f"{regressions['candidate_trace']}"
        )
        for row in regressions["top"]:
            ratio = row["ratio"]
            ratio_text = f"x{ratio:5.3f}" if ratio is not None else "  new "
            marker = (
                f" (only in {row['only_in']})" if row["only_in"] else ""
            )
            lines.append(
                f"  {row['path']:40s} "
                f"{row['baseline_wall_seconds']:8.3f}s -> "
                f"{row['candidate_wall_seconds']:8.3f}s  "
                f"{row['delta_seconds']:+8.3f}s  {ratio_text}{marker}"
            )
    lines.append("\nmerged flame (all runs):")
    lines.append(flame(report["merged"]["phases"], width=width))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: per-phase attribution across one or more JSONL traces."""
    parser = argparse.ArgumentParser(
        prog="repro-trace-report",
        description="Aggregate JSONL span traces into per-phase "
        "attribution, cross-run deltas, and a merged ASCII flame.",
    )
    parser.add_argument(
        "traces", nargs="+",
        help="JSONL trace files, oldest first (regressions compare "
        "first vs last)",
    )
    parser.add_argument(
        "--top", type=int, default=5,
        help="rows in the top-deltas table (default: %(default)s)",
    )
    parser.add_argument(
        "--width", type=int, default=40,
        help="flame bar width in characters (default: %(default)s)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable report JSON to PATH "
        "('-' for stdout)",
    )
    args = parser.parse_args(argv)
    try:
        report = build_report(args.traces, top=args.top)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report_json = json.dumps(report, indent=2, sort_keys=True)
    if args.json == "-":
        print(report_json)
    else:
        print(render_report(report, width=args.width))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(report_json + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
