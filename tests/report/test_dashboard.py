"""Dashboard renderers: schema version, byte-stability."""

from repro.obs import validate as obs_validate
from repro.report.dashboard import (
    DASHBOARD_SCHEMA_VERSION,
    build_dashboard_payload,
    render_dashboard_text,
)


def make_status():
    return {
        "ready": True,
        "reason": "ok",
        "draining": False,
        "queue": {"depth": 1, "capacity": 48, "shedding": False,
                  "closed": False},
        "breakers": {},
        "jobs": {"done": 2, "running": 1},
        "replay": {"counters": {}},
        "latency": {
            "latency.job_seconds": {
                "count": 3, "p50": 0.5, "p95": 0.9, "p99": 0.9,
                "p999": 0.9,
            }
        },
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def make_payload():
    return build_dashboard_payload(
        make_status(), jobs=[{"id": "job-1", "status": "done"}]
    )


class TestSchemaVersion:
    def test_payload_carries_current_version(self):
        assert make_payload()["schema_version"] == DASHBOARD_SCHEMA_VERSION

    def test_renderer_and_validator_move_in_lockstep(self):
        assert (
            DASHBOARD_SCHEMA_VERSION
            == obs_validate.SUPPORTED_DASHBOARD_SCHEMA_VERSION
        )

    def test_payload_validates(self):
        assert obs_validate.validate_dashboard(make_payload()) == []


class TestText:
    def test_text_is_byte_stable_and_ascii(self):
        first = render_dashboard_text(make_payload())
        second = render_dashboard_text(make_payload())
        assert first == second
        assert first.encode("ascii")
