"""Statistical timing harness: measure, bootstrap CIs, fingerprint."""

import json

import pytest

from repro.obs.bench import (
    bootstrap_ci,
    environment_fingerprint,
    measure,
    median_abs_deviation,
)


class TestMeasure:
    def test_repeats_and_warmup_counts(self):
        calls = []
        result = measure(lambda: calls.append(1), repeats=4, warmup=2)
        assert len(calls) == 6  # 2 warmup + 4 timed
        assert result.repeats == 4
        assert result.warmup == 2
        assert len(result.samples) == 4

    def test_statistics_are_consistent(self):
        result = measure(lambda: sum(range(2000)), repeats=5, warmup=1)
        assert result.best <= result.median <= max(result.samples)
        assert result.ci_low <= result.median <= result.ci_high
        assert result.mad >= 0.0

    def test_last_result_carries_return_value(self):
        result = measure(lambda: "payload", repeats=3, warmup=0)
        assert result.last_result == "payload"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=1, warmup=-1)

    def test_to_dict_round_trips_the_stats(self):
        result = measure(lambda: None, repeats=3, warmup=1)
        data = result.to_dict()
        assert data["repeats"] == 3
        assert data["warmup"] == 1
        assert data["median_seconds"] == result.median
        assert data["ci_low_seconds"] <= data["ci_high_seconds"]
        assert len(data["samples"]) == 3
        json.dumps(data)  # JSON-able


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

    def test_mad_robust_to_outlier(self):
        quiet = median_abs_deviation([1.0, 1.01, 0.99, 1.0, 1.02])
        spiked = median_abs_deviation([1.0, 1.01, 0.99, 1.0, 50.0])
        assert spiked < 0.1  # one outlier barely moves the MAD
        assert quiet >= 0.0


class TestEnvironmentFingerprint:
    def test_identity_fields_present(self):
        fingerprint = environment_fingerprint()
        assert fingerprint["python"]
        assert fingerprint["machine"] is not None
        assert fingerprint["cpu_count"] >= 1
        json.dumps(fingerprint)
