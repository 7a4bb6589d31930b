"""Cross-run trace analytics: aggregation, deltas, flame, CLI."""

import time

import pytest

from repro.obs.spans import Tracer
from repro.obs.trace_report import (
    aggregate_trace,
    build_report,
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
