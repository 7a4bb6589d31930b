"""Measurement helpers: bootstrap CIs and the environment fingerprint."""

import json

import pytest

from repro.obs.bench import bootstrap_ci, environment_fingerprint


class TestBootstrap:
    def test_single_sample_collapses(self):
        assert bootstrap_ci([0.5]) == (0.5, 0.5)

    def test_deterministic_for_same_samples(self):
        samples = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert bootstrap_ci(samples) == bootstrap_ci(samples)

    def test_interval_brackets_the_median(self):
        samples = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.05]
        low, high = bootstrap_ci(samples)
        assert low <= 1.0 <= high
        assert min(samples) <= low and high <= max(samples)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])


class TestEnvironmentFingerprint:
    def test_identity_fields_present(self):
        fingerprint = environment_fingerprint()
        assert fingerprint["python"]
        assert fingerprint["machine"] is not None
        assert fingerprint["cpu_count"] >= 1
        json.dumps(fingerprint)
