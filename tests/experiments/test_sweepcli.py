"""repro-sweep CLI: exit codes, JSON output, checkpoint/resume flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.sweepcli import EXIT_PARTIAL, main
from repro.resilience import faults
from repro.resilience.faults import ENV_VAR


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.deactivate()
    yield
    faults.deactivate()


def base_args(tmp_path, *extra):
    return [
        "--l1", "4K-16",
        "--l2", "64K-32",
        "--assoc", "2,4",
        "--scale", "0.002",
        "--processes", "2",
        "--retry-base", "0.01",
        "--out", str(tmp_path / "results.json"),
        *extra,
    ]


def read_out(tmp_path):
    return json.loads((tmp_path / "results.json").read_text())


class TestHappyPath:
    def test_completes_with_exit_zero(self, tmp_path):
        assert main(base_args(tmp_path)) == 0
        payload = read_out(tmp_path)
        assert len(payload["points"]) == 2
        assert all(p["result"] is not None for p in payload["points"])
        assert payload["failures"] == []

    def test_checkpoint_and_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt")
        assert main(base_args(tmp_path, "--checkpoint", checkpoint)) == 0
        assert (
            main(
                base_args(
                    tmp_path, "--checkpoint", checkpoint, "--resume"
                )
            )
            == 0
        )
        payload = read_out(tmp_path)
        assert payload["resumed"] == 2


class TestWorkerTeardown:
    def test_two_point_sweep_prints_no_traceback(self, tmp_path):
        """Idle pool workers end quietly when the pool is torn down.

        The workers fork with ``repro-sweep``'s SIGTERM handler; unless
        the pool resets it, the SIGTERM that stops each idle worker at
        teardown prints a traceback on stderr.
        """
        env = dict(os.environ)
        env.pop(ENV_VAR, None)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.sweepcli",
                "--l1", "4K-16", "--l2", "64K-32", "--assoc", "2,4",
                "--scale", "0.002", "--processes", "2",
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr


class TestUsageErrors:
    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, "--resume"))
        assert excinfo.value.code == 2

    def test_existing_checkpoint_needs_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt")
        assert main(base_args(tmp_path, "--checkpoint", checkpoint)) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, "--checkpoint", checkpoint))
        assert excinfo.value.code == 2


class TestFailurePaths:
    def test_injected_failure_yields_partial_exit(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "raise@0")
        code = main(
            base_args(tmp_path, "--failure-policy", "collect")
        )
        assert code == EXIT_PARTIAL
        payload = read_out(tmp_path)
        assert payload["points"][0]["result"] is None
        assert payload["points"][1]["result"] is not None
        (failure,) = payload["failures"]
        assert failure["error_type"] == "InjectedFaultError"

    def test_transient_failure_retried_to_success(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "raise@0:attempts=1")
        code = main(
            base_args(tmp_path, "--failure-policy", "retry_then_collect")
        )
        assert code == 0
        payload = read_out(tmp_path)
        assert payload["retries"] >= 1
        assert payload["failures"] == []


class TestInterrupt:
    """SIGTERM/SIGINT mid-sweep: checkpoint survives, exit is partial."""

    def _interrupt_when_checkpointed(self, checkpoint, signum):
        """Fire ``signum`` at this process once one result is durable."""
        import os
        import signal as signal_module
        import threading
        import time

        def fire():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    checkpoint.exists()
                    and '"kind": "result"' in checkpoint.read_text()
                ):
                    break
                time.sleep(0.05)
            os.kill(os.getpid(), signum)

        thread = threading.Thread(target=fire, daemon=True)
        thread.start()
        return thread

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_signal_mid_sweep_exits_partial_with_durable_checkpoint(
        self, tmp_path, monkeypatch, signame
    ):
        import signal as signal_module

        from repro.resilience.checkpoint import SweepCheckpoint

        signum = getattr(signal_module, signame)
        previous = signal_module.getsignal(signum)
        # Point 1 hangs far longer than the test: the signal always
        # lands mid-sweep, after point 0 has been checkpointed.
        monkeypatch.setenv(ENV_VAR, "hang@1:seconds=300")
        checkpoint = tmp_path / "sweep.ckpt"
        thread = self._interrupt_when_checkpointed(checkpoint, signum)
        code = main(
            base_args(
                tmp_path,
                "--checkpoint", str(checkpoint),
                "--failure-policy", "collect",
            )
        )
        thread.join(timeout=10.0)
        assert code == EXIT_PARTIAL
        # The completed point is durable, and the handler was restored.
        assert len(SweepCheckpoint(checkpoint).load()) >= 1
        assert signal_module.getsignal(signum) == previous

    def test_resume_finishes_an_interrupted_sweep(
        self, tmp_path, monkeypatch
    ):
        import signal as signal_module

        monkeypatch.setenv(ENV_VAR, "hang@1:seconds=300")
        checkpoint = tmp_path / "sweep.ckpt"
        thread = self._interrupt_when_checkpointed(
            checkpoint, signal_module.SIGTERM
        )
        assert (
            main(
                base_args(
                    tmp_path,
                    "--checkpoint", str(checkpoint),
                    "--failure-policy", "collect",
                )
            )
            == EXIT_PARTIAL
        )
        thread.join(timeout=10.0)
        monkeypatch.delenv(ENV_VAR)
        code = main(
            base_args(
                tmp_path, "--checkpoint", str(checkpoint), "--resume"
            )
        )
        assert code == 0
        payload = read_out(tmp_path)
        assert payload["resumed"] >= 1
        assert all(p["result"] is not None for p in payload["points"])
