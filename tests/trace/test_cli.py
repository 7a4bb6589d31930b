"""Tests for the repro-trace CLI."""

import sys

import pytest

from repro.errors import ConfigurationError
from repro.trace.cli import main, run
from repro.trace.dinero import read_din


@pytest.fixture
def din_path(tmp_path):
    path = tmp_path / "t.din"
    assert main([
        "generate", "--out", str(path), "--segments", "2", "--refs", "300",
    ]) == 0
    return path


class TestGenerate:
    def test_generates_file(self, din_path):
        assert din_path.stat().st_size > 0

    def test_gzip_output(self, tmp_path):
        path = tmp_path / "t.din.gz"
        assert main(["generate", "--out", str(path), "--refs", "100",
                     "--segments", "1"]) == 0
        assert sum(1 for _ in read_din(path)) == 100

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ConfigurationError):
            main(["generate", "--out", str(tmp_path / "t.xyz")])


class TestConvert:
    def test_din_to_gzip_roundtrip(self, din_path, tmp_path, capsys):
        gzipped = tmp_path / "t.din.gz"
        plain = tmp_path / "back.din"
        assert main(["convert", str(din_path), str(gzipped)]) == 0
        assert main(["convert", str(gzipped), str(plain)]) == 0
        assert list(read_din(gzipped)) == list(read_din(din_path))
        assert plain.read_bytes() == din_path.read_bytes()

    def test_non_din_extension_rejected(self, din_path, tmp_path,
                                        monkeypatch, capsys):
        args = ["convert", str(din_path), str(tmp_path / "t.rpt")]
        with pytest.raises(ConfigurationError, match=r"\.din or \.din\.gz"):
            main(args)
        monkeypatch.setattr(sys, "argv", ["repro-trace"] + args)
        with pytest.raises(SystemExit) as exit_info:
            run()
        assert exit_info.value.code == 2
        assert not (tmp_path / "t.rpt").exists()

    def test_converting_onto_the_source_is_rejected(self, din_path, tmp_path,
                                                   monkeypatch, capsys):
        before = din_path.read_bytes()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.din").symlink_to(din_path)
        for dest in (str(din_path), "./t.din", "sub/../t.din", "link.din"):
            args = ["convert", str(din_path), dest]
            with pytest.raises(ConfigurationError, match="is the source"):
                main(args)
            monkeypatch.setattr(sys, "argv", ["repro-trace"] + args)
            with pytest.raises(SystemExit) as exit_info:
                run()
            assert exit_info.value.code == 2
            assert din_path.read_bytes() == before


class TestStats:
    def test_summary_printed(self, din_path, capsys):
        assert main(["stats", str(din_path), "--block", "32"]) == 0
        out = capsys.readouterr().out
        assert "references           : 600" in out
        assert "flushes              : 1" in out

    def test_limit(self, din_path, capsys):
        assert main(["stats", str(din_path), "--limit", "50"]) == 0
        assert "references           : 50" in capsys.readouterr().out


class TestHead:
    def test_prints_records(self, din_path, capsys):
        assert main(["head", str(din_path), "-n", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert any("0x" in line for line in lines)
