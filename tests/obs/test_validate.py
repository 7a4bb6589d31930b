"""``repro-obs-validate`` on corrupted inputs: loud, pointed failures."""

import json

import pytest

from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest
from repro.obs.spans import Tracer
from repro.obs.validate import (
    main,
    validate_manifest,
    validate_span,
    validate_trace_file,
)


@pytest.fixture
def valid_manifest_path(tmp_path):
    """A freshly built, schema-valid manifest on disk."""
    manifest = RunManifest.build(tool="test", config={"a": 1})
    return manifest.write(tmp_path / "manifest.json")


@pytest.fixture
def valid_trace_path(tmp_path):
    """A real single-span JSONL trace on disk."""
    tracer = Tracer()
    with tracer.span("phase"):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    return path


class TestCorruptTrace:
    def test_truncated_jsonl_line_fails_with_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # A valid record followed by a mid-write truncation.
        tracer = Tracer()
        with tracer.span("phase"):
            pass
        tracer.write_jsonl(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "l2_replay", "path": "l2_re')
        errors = validate_trace_file(path)
        assert len(errors) == 1
        assert "malformed JSONL" in errors[0]
        assert ":2:" in errors[0]  # points at the truncated line

    def test_cli_exits_nonzero_on_truncated_trace(
        self, valid_manifest_path, tmp_path, capsys
    ):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"name": "x"')
        assert main([str(valid_manifest_path), "--trace", str(bad)]) == 1
        assert "malformed JSONL" in capsys.readouterr().err

    def test_wrong_shape_record_fails(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"name": "x", "depth": 0}) + "\n")
        errors = validate_trace_file(path)
        assert any("missing required key 'path'" in e for e in errors)


class TestCorruptManifest:
    def test_missing_config_hash_is_pointed_at(self, valid_manifest_path):
        data = json.loads(valid_manifest_path.read_text())
        del data["config_hash"]
        errors = validate_manifest(data)
        assert errors == ["manifest: missing required key 'config_hash'"]

    def test_newer_schema_version_rejected(self, valid_manifest_path):
        data = json.loads(valid_manifest_path.read_text())
        data["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        errors = validate_manifest(data)
        assert len(errors) == 1
        assert "newer than the supported" in errors[0]

    def test_cli_exits_nonzero_on_missing_config_hash(
        self, valid_manifest_path, capsys
    ):
        data = json.loads(valid_manifest_path.read_text())
        del data["config_hash"]
        valid_manifest_path.write_text(json.dumps(data))
        assert main([str(valid_manifest_path)]) == 1
        assert "config_hash" in capsys.readouterr().err

    def test_unparseable_json_reported_with_path(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        assert main([str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestCliArguments:
    def test_nothing_to_validate_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_manifest_and_trace_together(
        self, valid_manifest_path, valid_trace_path, capsys
    ):
        assert main(
            [str(valid_manifest_path), "--trace", str(valid_trace_path)]
        ) == 0
        assert "schema-valid" in capsys.readouterr().out


def make_span(**overrides):
    """A minimal schema-valid span record with causal identity."""
    record = {
        "name": "phase", "path": "phase", "depth": 0, "start": 0.0,
        "wall_seconds": 0.1, "cpu_seconds": 0.1, "attrs": {}, "index": 0,
        "trace_id": "a" * 16, "span_id": "b" * 16, "parent_span_id": None,
    }
    record.update(overrides)
    return record


class TestSpanIdentity:
    def test_well_formed_ids_pass(self):
        assert validate_span(make_span()) == []

    def test_legacy_record_without_id_fields_stays_valid(self):
        record = make_span()
        for key in ("trace_id", "span_id", "parent_span_id"):
            del record[key]
        assert validate_span(record) == []

    def test_none_ids_pass(self):
        assert validate_span(
            make_span(trace_id=None, span_id=None, parent_span_id=None)
        ) == []

    @pytest.mark.parametrize("bad", [
        "A" * 16,       # uppercase
        "a" * 15,       # too short
        "a" * 17,       # too long
        "g" * 16,       # not hex
        "",
    ])
    def test_malformed_id_rejected(self, bad):
        errors = validate_span(make_span(trace_id=bad))
        assert len(errors) == 1
        assert "not a 16-hex-char id" in errors[0]

    def test_wrong_id_type_rejected(self):
        errors = validate_span(make_span(span_id=42))
        assert any("key 'span_id' has type int" in e for e in errors)
