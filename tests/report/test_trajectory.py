"""The bench-trajectory report: payload, verdict parity, renderings."""

import json

from repro.obs import validate as obs_validate
from repro.obs.bench import BenchHistory, TimingResult, build_entry
from repro.obs.compare import compare_entries
from repro.report.trajectory import REPORT_SCHEMA_VERSION, TrajectoryReport


def entry(median=1.0, spread=0.01, config_hash="cafe", sha="a" * 40):
    samples = [median - spread, median, median + spread]
    return build_entry(
        config={"references": 4000},
        config_hash=config_hash,
        results={
            "l2_replay_fused_engine": {
                "timing": TimingResult(samples, warmup=1).to_dict(),
                "requests": 4000,
                "requests_per_second": 4000 / median,
            }
        },
        probe_counts={"naive": {"hit_probes": 100, "miss_probes": 17}},
        sha=sha,
    )


def history_with(*entries):
    history = BenchHistory()
    for item in entries:
        history.append(item, dedupe=False)
    return history


class TestBuild:
    def test_empty_history_is_an_honest_empty_report(self):
        report = TrajectoryReport.build(BenchHistory())
        assert report.data["entry_count"] == 0
        assert report.data["series"] == []
        assert report.data["verdict"] is None
        assert report.verdict is None
        text = report.render_ascii()
        assert "no benchmark entries yet" in text

    def test_missing_file_builds_empty(self, tmp_path):
        report = TrajectoryReport.from_file(tmp_path / "absent.json")
        assert report.data["entry_count"] == 0

    def test_series_points_carry_ci_and_throughput(self):
        report = TrajectoryReport.build(history_with(entry()))
        (series,) = report.data["series"]
        assert series["name"] == "l2_replay_fused_engine"
        (point,) = series["points"]
        assert point["median_seconds"] == 1.0
        assert point["requests_per_second"] == 4000.0
        assert point["ci_low_seconds"] <= 1.0 <= point["ci_high_seconds"]
        assert point["rps_low"] < 4000.0 < point["rps_high"]

    def test_schema_version_matches_validator_constant(self):
        # The validator duplicates (not imports) the constant; this is
        # the lockstep check the duplication relies on.
        assert (
            REPORT_SCHEMA_VERSION
            == obs_validate.SUPPORTED_REPORT_SCHEMA_VERSION
        )

    def test_payload_passes_the_schema_validator(self):
        report = TrajectoryReport.build(
            history_with(entry(sha=None), entry(median=1.3, sha=None))
        )
        assert obs_validate.validate_report(report.data) == []
        assert obs_validate.validate_report(
            json.loads(report.to_json())
        ) == []


class TestVerdictParity:
    """Trajectory verdicts must match repro-bench-compare exactly."""

    def test_same_pair_same_verdict(self):
        baseline = entry(median=1.0)
        candidate = entry(median=2.0, sha="b" * 40)
        history = history_with(baseline, candidate)
        report = TrajectoryReport.build(history)
        expected = compare_entries(
            history.entries[0],
            history.entries[1],
            baseline_index=0,
            candidate_index=1,
        )
        assert report.data["verdict"]["verdict"] == expected["verdict"]
        assert report.data["verdict"]["timing"] == expected["timing"]
        assert report.verdict == "timing-regression"

    def test_lineage_selection_skips_other_config_hashes(self):
        a1 = entry(median=1.0, config_hash="aaaa")
        b1 = entry(median=5.0, config_hash="bbbb", sha="b" * 40)
        a2 = entry(median=1.01, config_hash="aaaa", sha="c" * 40)
        report = TrajectoryReport.build(history_with(a1, b1, a2))
        verdict = report.data["verdict"]
        assert verdict["baseline"]["index"] == 0
        assert verdict["candidate"]["index"] == 2
        assert verdict["verdict"] == "ok"

    def test_no_lineage_self_compares_with_note(self):
        report = TrajectoryReport.build(history_with(entry()))
        verdict = report.data["verdict"]
        assert verdict["verdict"] == "ok"
        assert any("self-comparison" in note for note in verdict["notes"])


class TestRenderings:
    def test_ascii_is_byte_stable_and_pure_ascii(self):
        report = TrajectoryReport.build(
            history_with(entry(), entry(median=1.2, sha="b" * 40))
        )
        first = report.render_ascii()
        second = report.render_ascii()
        assert first == second
        assert first.encode("ascii")
        assert "throughput" in first and "median wall" in first
        assert "verdict:" in first

    def test_ascii_flags_regressions(self):
        report = TrajectoryReport.build(
            history_with(entry(median=1.0), entry(median=2.0, sha="b" * 40))
        )
        text = report.render_ascii()
        assert "timing-regression" in text
        assert "REGRESSION" in text

    def test_html_is_self_contained(self):
        report = TrajectoryReport.build(
            history_with(entry(), entry(median=1.2, sha="b" * 40))
        )
        page = report.render_html()
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page and "polyline" in page
        assert "<style>" in page
        assert "http://" not in page.replace(
            "http://www.w3.org/2000/svg", ""
        )

    def test_empty_html_renders(self):
        page = TrajectoryReport.build(BenchHistory()).render_html()
        assert "no benchmark entries yet" in page
