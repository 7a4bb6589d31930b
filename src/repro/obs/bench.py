"""Statistical timing harness: warmup, repeats, robust statistics.

:func:`measure` replaces best-of-N wall clock with a proper timing
protocol: warmup rounds (JIT-free Python still warms allocator and
branch caches), N timed repeats, then robust statistics — median, MAD
(median absolute deviation), and a bootstrap confidence interval of the
median. The result carries the raw samples, so downstream comparisons
can re-derive anything. :func:`environment_fingerprint` names the
measuring machine, so a reader can tell a same-host number from a
cross-host one.

The pytest-benchmark suites time through it
(``benchmarks/_bench_utils.timed``), and ``repro-report`` stamps the
fingerprint into ``results_summary.md``. Standard library only, per
the ``repro.obs`` import rule.
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: Default bootstrap resample count for confidence intervals.
DEFAULT_RESAMPLES = 500

#: Default two-sided confidence level for the bootstrap interval.
DEFAULT_CONFIDENCE = 0.95


def environment_fingerprint() -> Dict[str, Any]:
    """Identity of the measuring machine, for apples-to-apples checks.

    Timing comparisons across different hosts are noise by
    construction; the fingerprint tells a same-machine regression
    from a cross-machine artifact.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
    }


def median_abs_deviation(samples: List[float]) -> float:
    """Median absolute deviation from the median — a robust spread.

    Unlike standard deviation, a single outlier repeat (GC pause,
    scheduler hiccup) barely moves it.
    """
    if not samples:
        return 0.0
    center = statistics.median(samples)
    return statistics.median([abs(x - center) for x in samples])


def bootstrap_ci(
    samples: List[float],
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
) -> Tuple[float, float]:
    """Bootstrap confidence interval of the *median* of ``samples``.

    Resamples with replacement ``resamples`` times (seeded, so the
    interval is reproducible from the same samples), takes each
    resample's median, and returns the symmetric
    ``(1 - confidence) / 2`` percentiles of that distribution.

    With a single sample the interval collapses to ``(x, x)`` — a
    degenerate but honest statement that no spread was observed.
    """
    if not samples:
        raise ValueError("bootstrap_ci needs at least one sample")
    if len(samples) == 1:
        return (samples[0], samples[0])
    rng = random.Random(seed)
    n = len(samples)
    medians = sorted(
        statistics.median(rng.choices(samples, k=n)) for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_index = min(len(medians) - 1, max(0, math.floor(alpha * len(medians))))
    hi_index = min(
        len(medians) - 1, max(0, math.ceil((1.0 - alpha) * len(medians)) - 1)
    )
    return (medians[lo_index], medians[hi_index])


class TimingResult:
    """Statistics of one :func:`measure` call, samples included.

    Attributes:
        samples: Per-repeat wall-clock seconds, in run order.
        repeats: Number of timed repeats (``len(samples)``).
        warmup: Untimed warmup rounds that preceded the samples.
        median: Median of the samples (the headline number).
        mad: Median absolute deviation (robust spread).
        mean: Arithmetic mean (for comparison with older best-of-N).
        best: Fastest repeat (what best-of-N used to report).
        ci_low: Lower bound of the bootstrap CI of the median.
        ci_high: Upper bound of the bootstrap CI of the median.
        last_result: Whatever the timed callable returned on its final
            repeat — lets callers pull deterministic by-products (e.g.
            probe accumulators) out of the measured run for free.
    """

    __slots__ = (
        "samples", "repeats", "warmup", "median", "mad", "mean",
        "best", "ci_low", "ci_high", "last_result",
    )

    def __init__(
        self,
        samples: List[float],
        warmup: int,
        resamples: int = DEFAULT_RESAMPLES,
        confidence: float = DEFAULT_CONFIDENCE,
        last_result: Any = None,
    ) -> None:
        if not samples:
            raise ValueError("TimingResult needs at least one sample")
        self.samples = list(samples)
        self.repeats = len(samples)
        self.warmup = warmup
        self.median = statistics.median(samples)
        self.mad = median_abs_deviation(samples)
        self.mean = statistics.fmean(samples)
        self.best = min(samples)
        self.ci_low, self.ci_high = bootstrap_ci(
            samples, resamples=resamples, confidence=confidence
        )
        self.last_result = last_result

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of the statistics (JSON-able, samples included)."""
        return {
            "samples": self.samples,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "median_seconds": self.median,
            "mad_seconds": self.mad,
            "mean_seconds": self.mean,
            "best_seconds": self.best,
            "ci_low_seconds": self.ci_low,
            "ci_high_seconds": self.ci_high,
        }

    def __repr__(self) -> str:
        return (
            f"TimingResult(median={self.median:.6f}, mad={self.mad:.6f}, "
            f"ci=[{self.ci_low:.6f}, {self.ci_high:.6f}], "
            f"repeats={self.repeats})"
        )


def measure(
    fn: Callable[[], Any],
    repeats: int = 5,
    warmup: int = 1,
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
) -> TimingResult:
    """Time ``fn`` statistically: warmup, N repeats, robust stats.

    Every round calls ``fn()`` afresh (setup belongs inside the
    callable so each repeat measures identical work from cold state).
    Warmup rounds run and are discarded; the ``repeats`` timed rounds
    become :class:`TimingResult` samples with median/MAD and a
    bootstrap CI of the median.

    Args:
        fn: Zero-argument callable doing the work to time.
        repeats: Timed rounds (>= 1).
        warmup: Untimed rounds before measuring (>= 0).
        resamples: Bootstrap resample count for the CI.
        confidence: Two-sided CI level (e.g. ``0.95``).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples = []
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = fn()
        samples.append(time.perf_counter() - start)
    return TimingResult(
        samples,
        warmup=warmup,
        resamples=resamples,
        confidence=confidence,
        last_result=outcome,
    )
