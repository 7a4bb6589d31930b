"""Schema validation for manifests, JSONL traces, and bench histories.

Hand-rolled structural checks — no ``jsonschema`` dependency — used by
tests and by CI's instrumented smoke sweep, which asserts that a real
run produced schema-valid artifacts before archiving them::

    python -m repro.obs.validate out/manifest.json --trace out/trace.jsonl
    python -m repro.obs.validate --history BENCH_simulator.json
    python -m repro.obs.validate --report results/trajectory.json
    python -m repro.obs.validate --dashboard dashboard.json
    python -m repro.obs.validate --fsck-report fsck.json

Exit status 0 when everything validates; 1 with one error per line on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Dict, List, Optional

from repro.obs.bench import BENCH_HISTORY_SCHEMA_VERSION
from repro.obs.jsonl import read_jsonl
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

#: Required manifest keys and their accepted types.
_MANIFEST_FIELDS = {
    "schema_version": (int,),
    "tool": (str,),
    "created_unix": (int, float),
    "package_version": (str, type(None)),
    "git_sha": (str, type(None)),
    "config_hash": (str,),
    "workload": (dict, type(None)),
    "phases": (dict,),
    "metrics": (dict,),
    "failures": (list,),
}

#: Required span-record keys and their accepted types.
_SPAN_FIELDS = {
    "name": (str,),
    "path": (str,),
    "depth": (int,),
    "start": (int, float),
    "wall_seconds": (int, float),
    "cpu_seconds": (int, float),
    "attrs": (dict,),
    "index": (int,),
}

#: Causal-identity keys: optional (legacy traces predate them), but
#: type- and format-checked when present.
_SPAN_ID_FIELDS = {
    "trace_id": (str, type(None)),
    "span_id": (str, type(None)),
    "parent_span_id": (str, type(None)),
}

#: The id format :mod:`repro.obs.context` emits: 16 lowercase hex.
_ID_PATTERN = re.compile(r"[0-9a-f]{16}")


def _check_fields(
    data: Dict[str, Any], fields: Dict[str, tuple], where: str
) -> List[str]:
    """Type-check required ``fields`` of ``data``; returns error strings."""
    errors = []
    for key, types in fields.items():
        if key not in data:
            errors.append(f"{where}: missing required key {key!r}")
        elif not isinstance(data[key], types):
            errors.append(
                f"{where}: key {key!r} has type "
                f"{type(data[key]).__name__}, expected one of "
                f"{[t.__name__ for t in types]}"
            )
    return errors


def validate_manifest(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a manifest dict (empty list = valid)."""
    if not isinstance(data, dict):
        return ["manifest: not a JSON object"]
    errors = _check_fields(data, _MANIFEST_FIELDS, "manifest")
    if "config" not in data:
        errors.append("manifest: missing required key 'config'")
    version = data.get("schema_version")
    if isinstance(version, int) and version > MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"manifest: schema_version {version} is newer than the "
            f"supported {MANIFEST_SCHEMA_VERSION}"
        )
    for block in ("counters", "gauges", "histograms"):
        metrics = data.get("metrics")
        if isinstance(metrics, dict) and metrics and block not in metrics:
            errors.append(f"manifest: metrics snapshot missing {block!r}")
    phases = data.get("phases")
    if isinstance(phases, dict):
        for name, entry in phases.items():
            if not isinstance(entry, dict):
                errors.append(f"manifest: phase {name!r} is not an object")
                continue
            for key in ("count", "wall_seconds", "cpu_seconds"):
                if key not in entry:
                    errors.append(
                        f"manifest: phase {name!r} missing {key!r}"
                    )
    for index, failure in enumerate(data.get("failures") or []):
        if not isinstance(failure, dict) or "error" not in failure:
            errors.append(
                f"manifest: failures[{index}] must be an object with 'error'"
            )
    return errors


def validate_span(record: Dict[str, Any], where: str = "span") -> List[str]:
    """Structural errors in one trace record (empty list = valid).

    The causal-identity fields (``trace_id``/``span_id``/
    ``parent_span_id``) are optional — traces written before trace
    context existed stay valid — but when present they must be
    ``None`` or a 16-lowercase-hex id.
    """
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    errors = _check_fields(record, _SPAN_FIELDS, where)
    if not errors:
        if record["depth"] < 0:
            errors.append(f"{where}: negative depth")
        if record["wall_seconds"] < 0:
            errors.append(f"{where}: negative wall_seconds")
        if not record["path"].endswith(record["name"]):
            errors.append(f"{where}: path does not end with span name")
    for key, types in _SPAN_ID_FIELDS.items():
        if key not in record:
            continue
        value = record[key]
        if not isinstance(value, types):
            errors.append(
                f"{where}: key {key!r} has type {type(value).__name__}, "
                f"expected one of {[t.__name__ for t in types]}"
            )
        elif isinstance(value, str) and not _ID_PATTERN.fullmatch(value):
            errors.append(
                f"{where}: key {key!r} is not a 16-hex-char id: {value!r}"
            )
    return errors


def validate_trace_file(path) -> List[str]:
    """Structural errors across every record of a JSONL trace file."""
    errors: List[str] = []
    try:
        for index, record in enumerate(read_jsonl(path)):
            errors.extend(validate_span(record, where=f"{path}:{index + 1}"))
    except (OSError, ValueError) as exc:
        errors.append(str(exc))
    return errors


#: Required benchmark-history entry keys and their accepted types.
_HISTORY_ENTRY_FIELDS = {
    "created_unix": (int, float),
    "git_sha": (str, type(None)),
    "config_hash": (str,),
    "config": (dict,),
    "environment": (dict,),
    "results": (dict,),
    "probe_counts": (dict,),
    "summary": (dict,),
}

#: Required timing-stats keys inside each result's ``timing`` block.
_TIMING_FIELDS = {
    "samples": (list,),
    "repeats": (int,),
    "warmup": (int,),
    "median_seconds": (int, float),
    "mad_seconds": (int, float),
    "ci_low_seconds": (int, float),
    "ci_high_seconds": (int, float),
}


def validate_history(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a benchmark-history dict (empty = valid).

    Checks the trajectory envelope (``schema_version``, ``benchmark``,
    ``entries``), then every entry's identity keys and each result's
    ``timing`` statistics block — the fields
    :mod:`repro.obs.compare` dereferences unconditionally.
    """
    if not isinstance(data, dict):
        return ["history: not a JSON object"]
    errors = []
    version = data.get("schema_version")
    if not isinstance(version, int):
        errors.append("history: missing or non-integer 'schema_version'")
    elif version > BENCH_HISTORY_SCHEMA_VERSION:
        errors.append(
            f"history: schema_version {version} is newer than the "
            f"supported {BENCH_HISTORY_SCHEMA_VERSION}"
        )
    if not isinstance(data.get("benchmark"), str):
        errors.append("history: missing or non-string 'benchmark'")
    entries = data.get("entries")
    if not isinstance(entries, list):
        errors.append("history: missing or non-list 'entries'")
        return errors
    for index, entry in enumerate(entries):
        where = f"history entry[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        errors.extend(_check_fields(entry, _HISTORY_ENTRY_FIELDS, where))
        results = entry.get("results")
        if not isinstance(results, dict):
            continue
        for name, result in results.items():
            if not isinstance(result, dict):
                errors.append(f"{where}.results[{name!r}]: not an object")
                continue
            timing = result.get("timing")
            if timing is None:
                continue  # legacy-migrated entries may lack stats
            if not isinstance(timing, dict):
                errors.append(
                    f"{where}.results[{name!r}].timing: not an object"
                )
                continue
            errors.extend(
                _check_fields(
                    timing,
                    _TIMING_FIELDS,
                    f"{where}.results[{name!r}].timing",
                )
            )
    return errors


def validate_history_file(path) -> List[str]:
    """Structural errors in a benchmark-history JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_history(data)


def validate_manifest_file(path) -> List[str]:
    """Structural errors in a manifest JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_manifest(data)


#: Highest trajectory-report (``trajectory.json``) schema version this
#: validator understands. Mirrors
#: ``repro.report.trajectory.REPORT_SCHEMA_VERSION`` — duplicated, not
#: imported, because :mod:`repro.obs` must not depend on the rest of
#: the package; a cross-check test keeps them in lockstep.
SUPPORTED_REPORT_SCHEMA_VERSION = 1

#: Highest ``/dashboard.json`` schema version this validator
#: understands. Mirrors
#: ``repro.report.dashboard.DASHBOARD_SCHEMA_VERSION`` (same
#: duplication rationale as above). v2 added ``status.latency``; v3
#: adds nothing this validator checks.
SUPPORTED_DASHBOARD_SCHEMA_VERSION = 3

#: Required trajectory-report keys and their accepted types.
_REPORT_FIELDS = {
    "schema_version": (int,),
    "kind": (str,),
    "benchmark": (str, type(None)),
    "history_schema_version": (int,),
    "entry_count": (int,),
    "entries": (list,),
    "series": (list,),
    "verdict": (dict, type(None)),
}

#: Required per-point keys inside a trajectory series.
_SERIES_POINT_FIELDS = {
    "index": (int,),
    "git_sha": (str, type(None)),
    "config_hash": (str, type(None)),
    "median_seconds": (int, float, type(None)),
    "requests_per_second": (int, float, type(None)),
}

#: Required ``/dashboard.json`` keys and their accepted types.
_DASHBOARD_FIELDS = {
    "schema_version": (int,),
    "kind": (str,),
    "status": (dict,),
    "jobs": (list,),
    "trajectory": (dict, type(None)),
}

#: Required keys inside the dashboard's ``status`` block.
_DASHBOARD_STATUS_FIELDS = {
    "ready": (bool,),
    "reason": (str,),
    "draining": (bool,),
    "queue": (dict,),
    "breakers": (dict,),
    "jobs": (dict,),
    "replay": (dict,),
    "metrics": (dict,),
}


def _check_version(
    data: Dict[str, Any], supported: int, where: str
) -> List[str]:
    """Reject payloads newer than this validator understands."""
    version = data.get("schema_version")
    if isinstance(version, int) and version > supported:
        return [
            f"{where}: schema_version {version} is newer than the "
            f"supported {supported}"
        ]
    return []


def validate_report(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a trajectory-report dict (empty = valid)."""
    if not isinstance(data, dict):
        return ["report: not a JSON object"]
    errors = _check_fields(data, _REPORT_FIELDS, "report")
    errors.extend(
        _check_version(data, SUPPORTED_REPORT_SCHEMA_VERSION, "report")
    )
    kind = data.get("kind")
    if isinstance(kind, str) and kind != "bench-trajectory":
        errors.append(f"report: kind {kind!r} != 'bench-trajectory'")
    for block_index, block in enumerate(data.get("series") or []):
        where = f"report series[{block_index}]"
        if not isinstance(block, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        if not isinstance(block.get("name"), str):
            errors.append(f"{where}: missing or non-string 'name'")
        points = block.get("points")
        if not isinstance(points, list):
            errors.append(f"{where}: missing or non-list 'points'")
            continue
        for point_index, point in enumerate(points):
            if not isinstance(point, dict):
                errors.append(
                    f"{where}.points[{point_index}]: not a JSON object"
                )
                continue
            errors.extend(
                _check_fields(
                    point,
                    _SERIES_POINT_FIELDS,
                    f"{where}.points[{point_index}]",
                )
            )
    verdict = data.get("verdict")
    if isinstance(verdict, dict):
        for key in ("verdict", "baseline", "candidate", "timing"):
            if key not in verdict:
                errors.append(f"report: verdict missing {key!r}")
    return errors


def validate_dashboard(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a ``/dashboard.json`` dict (empty = valid)."""
    if not isinstance(data, dict):
        return ["dashboard: not a JSON object"]
    errors = _check_fields(data, _DASHBOARD_FIELDS, "dashboard")
    errors.extend(
        _check_version(data, SUPPORTED_DASHBOARD_SCHEMA_VERSION, "dashboard")
    )
    kind = data.get("kind")
    if isinstance(kind, str) and kind != "service-dashboard":
        errors.append(f"dashboard: kind {kind!r} != 'service-dashboard'")
    status = data.get("status")
    if isinstance(status, dict):
        errors.extend(
            _check_fields(status, _DASHBOARD_STATUS_FIELDS, "dashboard status")
        )
        # The latency quantile block arrived with schema v2; v1
        # payloads without it stay valid.
        version = data.get("schema_version")
        if isinstance(version, int) and version >= 2:
            if not isinstance(status.get("latency"), dict):
                errors.append(
                    "dashboard status: missing or non-object 'latency' "
                    "(required from schema v2)"
                )
    for index, record in enumerate(data.get("jobs") or []):
        where = f"dashboard jobs[{index}]"
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        for key in ("id", "status"):
            if key not in record:
                errors.append(f"{where}: missing required key {key!r}")
    trajectory = data.get("trajectory")
    if isinstance(trajectory, dict):
        errors.extend(validate_report(trajectory))
    return errors


#: Required ``/jobs/<id>/trace`` keys and their accepted types.
_JOB_TRACE_FIELDS = {
    "job": (str,),
    "trace_id": (str, type(None)),
    "status": (str,),
    "spans": (int,),
    "tree": (list,),
}


def _validate_tree_node(
    node: Any, where: str, errors: List[str]
) -> int:
    """Recursively check one span-tree node; returns spans counted."""
    if not isinstance(node, dict):
        errors.append(f"{where}: not a JSON object")
        return 0
    record = {k: v for k, v in node.items() if k != "children"}
    errors.extend(validate_span(record, where=where))
    children = node.get("children")
    if not isinstance(children, list):
        errors.append(f"{where}: missing or non-list 'children'")
        return 1
    count = 1
    for index, child in enumerate(children):
        child_where = f"{where}.children[{index}]"
        if isinstance(child, dict):
            parent = node.get("span_id")
            if parent is not None and child.get("parent_span_id") != parent:
                errors.append(
                    f"{child_where}: parent_span_id does not match the "
                    "enclosing node's span_id"
                )
        count += _validate_tree_node(child, child_where, errors)
    return count


def validate_job_trace(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a ``/jobs/<id>/trace`` dict (empty = valid).

    Checks the envelope, then every node of the span tree as a span
    record (with the optional causal-identity fields), that children
    really nest under their parent's ``span_id``, and that the
    ``spans`` count matches the tree.
    """
    if not isinstance(data, dict):
        return ["job-trace: not a JSON object"]
    errors = _check_fields(data, _JOB_TRACE_FIELDS, "job-trace")
    tree = data.get("tree")
    if not isinstance(tree, list):
        return errors
    total = 0
    for index, node in enumerate(tree):
        total += _validate_tree_node(
            node, f"job-trace tree[{index}]", errors
        )
    declared = data.get("spans")
    if isinstance(declared, int) and declared != total:
        errors.append(
            f"job-trace: 'spans' is {declared} but the tree holds {total}"
        )
    return errors


def validate_job_trace_file(path) -> List[str]:
    """Structural errors in a ``/jobs/<id>/trace`` JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_job_trace(data)


def validate_report_file(path) -> List[str]:
    """Structural errors in a trajectory-report JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_report(data)


def validate_dashboard_file(path) -> List[str]:
    """Structural errors in a dashboard-payload JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_dashboard(data)


#: Highest ``repro-fsck --report`` schema version this validator
#: understands. Mirrors
#: ``repro.storage.fsck.FSCK_REPORT_SCHEMA_VERSION`` (same duplication
#: rationale as the trajectory-report constant above; a cross-check
#: test keeps them in lockstep).
SUPPORTED_FSCK_REPORT_SCHEMA_VERSION = 1

#: Required fsck-report keys and their accepted types.
_FSCK_REPORT_FIELDS = {
    "schema_version": (int,),
    "kind": (str,),
    "generated_unix": (int, float),
    "root": (str,),
    "repair": (bool,),
    "scanned": (dict,),
    "findings": (list,),
    "counts": (dict,),
    "ok": (bool,),
}

#: Required keys of one fsck finding and their accepted types.
_FSCK_FINDING_FIELDS = {
    "path": (str,),
    "kind": (str,),
    "problem": (str,),
    "action": (str,),
    "repairable": (bool,),
    "detail": (str,),
}

#: The dispositions ``repro-fsck`` records per finding.
_FSCK_ACTIONS = frozenset(
    {"detected", "repaired", "removed", "quarantined"}
)

#: Required keys of the fsck report's ``counts`` roll-up.
_FSCK_COUNT_KEYS = (
    "verified", "findings", "repaired", "quarantined", "unrepairable",
)


def validate_fsck_report(data: Dict[str, Any]) -> List[str]:
    """Structural errors in a ``repro-fsck`` report dict (empty = valid).

    Checks the envelope, every finding's fields and disposition, the
    ``counts`` roll-up keys, and that ``ok`` agrees with the
    unrepairable count — an ``ok: true`` report with unrepairable
    findings would let CI archive corruption as a pass.
    """
    if not isinstance(data, dict):
        return ["fsck-report: not a JSON object"]
    errors = _check_fields(data, _FSCK_REPORT_FIELDS, "fsck-report")
    errors.extend(
        _check_version(
            data, SUPPORTED_FSCK_REPORT_SCHEMA_VERSION, "fsck-report"
        )
    )
    kind = data.get("kind")
    if isinstance(kind, str) and kind != "fsck-report":
        errors.append(f"fsck-report: kind {kind!r} != 'fsck-report'")
    for index, finding in enumerate(data.get("findings") or []):
        where = f"fsck-report findings[{index}]"
        if not isinstance(finding, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        errors.extend(_check_fields(finding, _FSCK_FINDING_FIELDS, where))
        action = finding.get("action")
        if isinstance(action, str) and action not in _FSCK_ACTIONS:
            errors.append(
                f"{where}: unknown action {action!r} "
                f"(expected one of {sorted(_FSCK_ACTIONS)})"
            )
    counts = data.get("counts")
    if isinstance(counts, dict):
        for key in _FSCK_COUNT_KEYS:
            if not isinstance(counts.get(key), int):
                errors.append(
                    f"fsck-report: counts missing or non-integer {key!r}"
                )
        unrepairable = counts.get("unrepairable")
        ok = data.get("ok")
        if isinstance(unrepairable, int) and isinstance(ok, bool):
            if ok != (unrepairable == 0):
                errors.append(
                    f"fsck-report: 'ok' is {ok} but counts report "
                    f"{unrepairable} unrepairable finding(s)"
                )
    return errors


def validate_fsck_report_file(path) -> List[str]:
    """Structural errors in a ``repro-fsck --report`` JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_fsck_report(data)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: validate manifests / traces / bench histories; 0 iff valid."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate run manifests, JSONL traces, and "
        "benchmark-history files.",
    )
    parser.add_argument(
        "manifest", nargs="?", default=None,
        help="path to a manifest JSON file",
    )
    parser.add_argument(
        "--trace", default=None, help="path to a JSONL trace to validate too"
    )
    parser.add_argument(
        "--history", default=None,
        help="path to a benchmark-history JSON (BENCH_*.json) to validate",
    )
    parser.add_argument(
        "--report", default=None,
        help="path to a trajectory-report JSON (trajectory.json) to validate",
    )
    parser.add_argument(
        "--dashboard", default=None,
        help="path to a dashboard-payload JSON (/dashboard.json) to validate",
    )
    parser.add_argument(
        "--job-trace", default=None, dest="job_trace",
        help="path to a flight-record JSON (/jobs/<id>/trace) to validate",
    )
    parser.add_argument(
        "--fsck-report", default=None, dest="fsck_report",
        help="path to a repro-fsck report JSON (--report FILE) to validate",
    )
    args = parser.parse_args(argv)
    inputs = (
        args.manifest, args.trace, args.history, args.report,
        args.dashboard, args.job_trace, args.fsck_report,
    )
    if all(value is None for value in inputs):
        parser.error(
            "nothing to validate: give a manifest, --trace, --history, "
            "--report, --dashboard, --job-trace, or --fsck-report"
        )
    errors = []
    checked = []
    if args.manifest is not None:
        errors.extend(validate_manifest_file(args.manifest))
        checked.append(args.manifest)
    if args.trace is not None:
        errors.extend(validate_trace_file(args.trace))
        checked.append(args.trace)
    if args.history is not None:
        errors.extend(validate_history_file(args.history))
        checked.append(args.history)
    if args.report is not None:
        errors.extend(validate_report_file(args.report))
        checked.append(args.report)
    if args.dashboard is not None:
        errors.extend(validate_dashboard_file(args.dashboard))
        checked.append(args.dashboard)
    if args.job_trace is not None:
        errors.extend(validate_job_trace_file(args.job_trace))
        checked.append(args.job_trace)
    if args.fsck_report is not None:
        errors.extend(validate_fsck_report_file(args.fsck_report))
        checked.append(args.fsck_report)
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(f"OK: {' and '.join(checked)} schema-valid")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
