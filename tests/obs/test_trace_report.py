"""Cross-run trace analytics: aggregation, deltas, flame, CLI."""

import time

import pytest

from repro.obs.spans import Tracer
from repro.obs.trace_report import (
    aggregate_trace,
    build_report,
    build_span_tree,
    flame,
    load_trace,
    main,
    merge_aggregates,
    top_deltas,
    wall_cpu_split,
)


def write_real_trace(path, phases):
    """Produce a genuine JSONL trace by running real (tiny) spans.

    ``phases`` maps span name -> (repetitions, busy_seconds); nesting
    one child under each parent exercises path aggregation.
    """
    tracer = Tracer()
    for name, (count, busy) in phases.items():
        for _ in range(count):
            with tracer.span(name):
                with tracer.span("inner"):
                    deadline = time.perf_counter() + busy
                    while time.perf_counter() < deadline:
                        pass
    tracer.write_jsonl(path)
    return path


@pytest.fixture
def trace_pair(tmp_path):
    """Two real trace files with a deliberate phase slowdown."""
    first = write_real_trace(
        tmp_path / "a.jsonl",
        {"l1_capture": (1, 0.001), "l2_replay": (2, 0.001)},
    )
    second = write_real_trace(
        tmp_path / "b.jsonl",
        {"l1_capture": (1, 0.001), "l2_replay": (2, 0.02)},
    )
    return first, second


class TestAggregation:
    def test_aggregate_by_path_with_counts(self, trace_pair):
        records = load_trace(trace_pair[0])
        aggregate = aggregate_trace(records)
        assert aggregate["l2_replay"]["count"] == 2
        assert aggregate["l2_replay/inner"]["count"] == 2
        assert aggregate["l1_capture"]["count"] == 1
        assert aggregate["l2_replay"]["wall_seconds"] >= 0.002

    def test_merge_adds_counts_and_times(self, trace_pair):
        aggregates = [
            aggregate_trace(load_trace(path)) for path in trace_pair
        ]
        merged = merge_aggregates(aggregates)
        assert merged["l2_replay"]["count"] == 4
        assert merged["l2_replay"]["wall_seconds"] == pytest.approx(
            aggregates[0]["l2_replay"]["wall_seconds"]
            + aggregates[1]["l2_replay"]["wall_seconds"]
        )

    def test_wall_cpu_split_ratio(self, trace_pair):
        split = wall_cpu_split(aggregate_trace(load_trace(trace_pair[0])))
        assert split["wall_seconds"] > 0
        assert 0.0 <= split["cpu_over_wall"]


class TestDeltas:
    def test_top_regressing_phase_ranked_first(self, trace_pair):
        first, second = trace_pair
        rows = top_deltas(
            aggregate_trace(load_trace(first)),
            aggregate_trace(load_trace(second)),
            top=3,
        )
        # Parent and child regress by the same amount (the busy-wait
        # sits inside ``inner``), so either may rank first.
        assert rows[0]["path"] in ("l2_replay", "l2_replay/inner")
        assert rows[0]["delta_seconds"] > 0
        assert rows[0]["ratio"] > 1.0

    def test_phase_only_in_candidate_is_flagged(self):
        rows = top_deltas(
            {"a": {"count": 1, "wall_seconds": 1.0, "cpu_seconds": 1.0}},
            {"b": {"count": 1, "wall_seconds": 2.0, "cpu_seconds": 2.0}},
            top=5,
        )
        by_path = {row["path"]: row for row in rows}
        assert by_path["b"]["only_in"] == "candidate"
        assert by_path["b"]["ratio"] is None
        assert by_path["a"]["only_in"] == "baseline"


class TestFlame:
    def test_bars_scale_with_wall_time(self):
        rendered = flame(
            {
                "big": {"count": 1, "wall_seconds": 1.0, "cpu_seconds": 1.0},
                "small": {"count": 1, "wall_seconds": 0.1, "cpu_seconds": 0.1},
            },
            width=20,
        )
        lines = rendered.splitlines()
        assert lines[0].count("#") == 20
        assert 1 <= lines[1].count("#") <= 3

    def test_empty_aggregate(self):
        assert flame({}) == "(no spans recorded)"


class TestBuildReport:
    def test_two_real_traces_attributed(self, trace_pair):
        report = build_report([str(path) for path in trace_pair], top=3)
        assert len(report["runs"]) == 2
        assert report["regressions"]["top"][0]["path"] in (
            "l2_replay", "l2_replay/inner"
        )
        assert report["merged"]["phases"]["l2_replay"]["count"] == 4

    def test_single_trace_has_no_regression_block(self, trace_pair):
        report = build_report([str(trace_pair[0])])
        assert "regressions" not in report
        assert report["runs"][0]["totals"]["wall_seconds"] > 0


def write_flight_record(path, job_id="job-1"):
    """Spool a synthetic but causally-complete trace of one job.

    One retried job: an end-to-end ``job`` root, ``admission`` and
    ``queue_wait`` phases, the executing ``service_job``, and two
    ``pool_task`` attempts shipped back from the pool — the first
    stamped as an error. Plus one span from an unrelated trace.
    """
    tracer = Tracer()
    trace, other = "a" * 16, "b" * 16
    root, execute = "c" * 16, "d" * 16
    tracer.record_span(
        "admission", 0.1, attrs={"job": job_id},
        trace_id=trace, parent_span_id=root, start=0.0,
    )
    tracer.record_span(
        "queue_wait", 0.2, attrs={"job": job_id},
        trace_id=trace, parent_span_id=root, start=0.1,
    )
    tracer.record_span(
        "pool_task", 0.25, cpu_seconds=0.2,
        attrs={"key": 0, "attempt": 1, "error": True,
               "error_type": "InjectedFaultError"},
        trace_id=trace, parent_span_id=execute, start=0.3,
    )
    tracer.record_span(
        "pool_task", 0.3, cpu_seconds=0.28,
        attrs={"key": 0, "attempt": 2},
        trace_id=trace, parent_span_id=execute, start=0.55,
    )
    tracer.record_span(
        "service_job", 0.6, attrs={"job": job_id},
        trace_id=trace, span_id=execute, parent_span_id=root, start=0.3,
    )
    tracer.record_span(
        "job", 1.0, attrs={"job": job_id, "status": "done"},
        trace_id=trace, span_id=root, start=0.0,
    )
    tracer.record_span("other_work", 0.4, trace_id=other, start=0.0)
    tracer.write_jsonl(path)
    return path


class TestSpanTree:
    def test_children_nest_under_matching_parent(self, tmp_path):
        records = load_trace(write_flight_record(tmp_path / "t.jsonl"))
        roots = build_span_tree(
            [r for r in records if r["trace_id"] == "a" * 16]
        )
        (root,) = roots
        assert root["name"] == "job"
        names = [child["name"] for child in root["children"]]
        assert names == ["admission", "queue_wait", "service_job"]
        execute = root["children"][2]
        assert [c["attrs"]["attempt"] for c in execute["children"]] == [1, 2]

    def test_orphan_spans_become_roots(self):
        roots = build_span_tree([
            {"name": "stray", "span_id": "s" * 16,
             "parent_span_id": "missing0missing0", "start": 1.0, "index": 0},
            {"name": "rootless", "span_id": None,
             "parent_span_id": None, "start": 0.5, "index": 1},
        ])
        assert [r["name"] for r in roots] == ["rootless", "stray"]
        assert all(r["children"] == [] for r in roots)

    def test_self_parented_span_does_not_recurse(self):
        (root,) = build_span_tree([
            {"name": "loop", "span_id": "s" * 16,
             "parent_span_id": "s" * 16, "start": 0.0, "index": 0},
        ])
        assert root["name"] == "loop" and root["children"] == []


class TestCli:
    def test_reports_two_real_traces(self, trace_pair, capsys):
        assert main([str(trace_pair[0]), str(trace_pair[1])]) == 0
        out = capsys.readouterr().out
        assert "top phase deltas" in out
        assert "merged flame" in out
        assert "l2_replay" in out

    def test_json_output(self, trace_pair, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(
            [str(trace_pair[0]), "--json", str(report_path)]
        ) == 0
        assert report_path.exists()

    def test_truncated_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "x", "path": "x"')  # truncated JSON line
        assert main([str(bad)]) == 1
        assert "malformed JSONL" in capsys.readouterr().err
