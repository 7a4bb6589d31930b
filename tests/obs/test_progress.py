"""Progress reporter: shard events and ETA lines."""

import io

from repro.obs.progress import ProgressReporter, progress_enabled


def make_reporter(total=4, enabled=True):
    stream = io.StringIO()
    return ProgressReporter(total=total, stream=stream, enabled=enabled), stream


class TestEnablement:
    def test_env_var_forces_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert progress_enabled(io.StringIO()) is True

    def test_env_var_forces_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert progress_enabled(io.StringIO()) is False

    def test_non_tty_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert progress_enabled(io.StringIO()) is False

    def test_disabled_reporter_is_silent(self):
        reporter, stream = make_reporter(enabled=False)
        reporter.started(0)
        reporter.finished(0)
        assert stream.getvalue() == ""


class TestEvents:
    def test_started_line(self):
        reporter, stream = make_reporter(total=8)
        reporter.started(2, "l1=4K-16, 6 points")
        line = stream.getvalue()
        assert "shard 3/8 started" in line
        assert "l1=4K-16, 6 points" in line

    def test_finished_line_has_progress_and_eta(self):
        reporter, stream = make_reporter(total=4)
        reporter.finished(0)
        line = stream.getvalue()
        assert "shard 1/4 finished" in line
        assert "1/4 complete" in line
        assert "ETA" in line

    def test_last_shard_reports_done(self):
        reporter, stream = make_reporter(total=2)
        reporter.finished(0)
        reporter.finished(1)
        assert "done" in stream.getvalue().splitlines()[-1]
