"""``repro-report``: the summary artifact and its determinism."""

import os
import subprocess
import sys
from pathlib import Path

from repro.report.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestArtifacts:
    def test_writes_only_the_summary(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(
            ["--out-dir", str(out_dir), "--scale", "0.002", "--no-figures"]
        )
        assert code == 0
        assert [p.name for p in out_dir.iterdir()] == ["results_summary.md"]


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        # The acceptance criterion: regenerate twice, figures included,
        # in two fresh interpreters, and diff nothing.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        summaries = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro.report.cli",
                    "--out-dir", str(out_dir), "--scale", "0.002",
                ],
                cwd=REPO_ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            summaries.append((out_dir / "results_summary.md").read_bytes())
        assert b"## Figure series" in summaries[0]
        assert summaries[0] == summaries[1]
