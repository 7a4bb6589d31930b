"""Dashboard renderers: the v3 per-shard table, byte-stability."""

from repro.obs import validate as obs_validate
from repro.report.dashboard import (
    DASHBOARD_SCHEMA_VERSION,
    build_dashboard_payload,
    render_dashboard_html,
    render_dashboard_text,
)


def make_status(with_shards=True):
    status = {
        "ready": True,
        "reason": "2/3 shards routable",
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
    if with_shards:
        status["shards"] = {
            "shard-0": {
                "name": "shard-0", "state": "healthy", "alive": True,
                "address": "127.0.0.1:4001", "breaker": "closed",
                "execute_breaker": "closed", "queue_depth": 1,
                "jobs": 2, "restarts": 0, "readmitted_to": 0,
            },
            "shard-1": {
                "name": "shard-1", "state": "dead", "alive": False,
                "address": None, "breaker": "open",
                "execute_breaker": None, "queue_depth": None,
                "jobs": None, "restarts": 2, "readmitted_to": 1,
            },
        }
    return status


def make_payload(**kwargs):
    return build_dashboard_payload(
        make_status(**kwargs), jobs=[{"id": "job-1", "status": "done"}]
    )


class TestSchemaVersion:
    def test_payload_carries_current_version(self):
        assert make_payload()["schema_version"] == DASHBOARD_SCHEMA_VERSION

    def test_renderer_and_validator_move_in_lockstep(self):
        assert (
            DASHBOARD_SCHEMA_VERSION
            == obs_validate.SUPPORTED_DASHBOARD_SCHEMA_VERSION
        )

    def test_payload_with_shards_validates(self):
        assert obs_validate.validate_dashboard(make_payload()) == []


class TestTextShardTable:
    def test_shard_table_rendered_in_name_order(self):
        text = render_dashboard_text(make_payload())
        assert "shards (2)" in text
        healthy = text.index("shard-0")
        dead = text.index("shard-1")
        assert healthy < dead
        assert "dead" in text
        assert "open" in text

    def test_no_shards_no_table(self):
        text = render_dashboard_text(make_payload(with_shards=False))
        assert "shards (" not in text

    def test_text_is_byte_stable_and_ascii(self):
        first = render_dashboard_text(make_payload())
        second = render_dashboard_text(make_payload())
        assert first == second
        assert first.encode("ascii")

    def test_absent_counts_render_as_placeholder(self):
        # A dead shard has no queue depth or job count to report; the
        # row still renders without a clock read or a crash.
        text = render_dashboard_text(make_payload())
        (dead_line,) = [
            line for line in text.splitlines()
            if line.startswith("shard-1")
        ]
        assert "dead" in dead_line


class TestHtmlShardTable:
    def test_shard_section_present(self):
        html = render_dashboard_html(make_payload())
        assert "Shards (2)" in html
        assert "shard-0" in html and "shard-1" in html

    def test_no_section_without_shards(self):
        html = render_dashboard_html(make_payload(with_shards=False))
        assert "Shards (" not in html
