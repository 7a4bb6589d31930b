"""The results-summary generator: content, provenance, determinism."""

import re
from pathlib import Path

import pytest

from repro.experiments.configs import default_workload
from repro.experiments.runner import ExperimentRunner
from repro.report.summary import build_summary

SCALE = 0.002

#: Everything below the provenance block at SCALE, seed 1989.
GOLDEN_BODY = Path(__file__).with_name("summary_body_scale0.002.md")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(default_workload(scale=SCALE, seed=1989))


class TestContent:
    def test_paper_tables_and_provenance(self, runner):
        text = build_summary(
            scale=SCALE, runner=runner, include_figures=False
        )
        assert "# Reproduction results summary" in text
        assert "## Provenance" in text
        assert "config_hash" in text
        assert "Table 1. Performance of Set-Associativity" in text
        assert "Table 2. Trial Set-Associativity" in text
        assert "Table 3. Trace and level-one cache" in text
        assert "cold-start segments" in text
        # Fixed-decimal columns, not :.4g wobble.
        assert "| 1.00 | 1.00 |" in text

    def test_figures_section(self, runner):
        text = build_summary(scale=SCALE, runner=runner)
        assert "## Figure series" in text
        assert "Figure 3. Probes for read-ins and write-backs" in text
        assert "Figure 5 (right). MRU-distance hit distributions" in text
        assert "Figure 6 (left). Partial transforms vs theory" in text

    def test_no_timestamps_anywhere(self, runner):
        # The determinism contract: regenerating must not churn git.
        text = build_summary(
            scale=SCALE, runner=runner, include_figures=False
        )
        for word in ("generated at", "timestamp"):
            assert word not in text.lower()
        assert not re.search(r"\b\d{1,2}:\d{2}\b", text)  # clock time
        assert not re.search(r"\b\d{4}-\d{2}-\d{2}\b", text)  # ISO date


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        # Two fully independent builds (fresh runners, fresh workloads).
        kwargs = dict(scale=SCALE, include_figures=False)
        assert build_summary(**kwargs) == build_summary(**kwargs)


class TestGoldenBody:
    def test_body_byte_identical_to_golden(self, runner):
        # Tables 1-3 and every figure series, byte for byte: pins the
        # per-column formats, the right-aligned rules, and "-" for
        # missing points and f_i padding.
        text = build_summary(scale=SCALE, runner=runner)
        body = text[text.index("## Paper tables"):]
        assert body == GOLDEN_BODY.read_text(encoding="utf-8")
