"""Measurement helpers: the host fingerprint and bootstrap intervals.

:func:`environment_fingerprint` names the measuring machine, so a
reader can tell a same-host number from a cross-host one:
``repro-report`` stamps it into ``results_summary.md``, and the table
and figure benchmarks into their saved pytest-benchmark runs
(``benchmarks/_bench_utils.once``). :func:`bootstrap_ci` gives a
seeded bootstrap confidence interval of a median. Repeated timing
itself is pytest-benchmark's job. Standard library only, per the
``repro.obs`` import rule.
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
from typing import Any, Dict, List, Tuple

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
