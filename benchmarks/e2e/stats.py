"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it; with fewer samples the tail is left
out instead of quoting a percentile made of one or two outliers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["median", "tail_percentile", "summarize"]

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be quoted.
MIN_BEYOND = 10


def median(samples) -> float:
    """Median of ``samples``; 0.0 for an empty collection."""
    samples = np.asarray(samples, dtype=np.float64)
    return float(np.median(samples)) if samples.size else 0.0


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ``MIN_BEYOND`` of ``count`` samples beyond it."""
    chosen = None
    for percentile in TAIL_PERCENTILES:
        # round(): the product must not miss the threshold by float noise
        if round(count * (100.0 - percentile) / 100.0, 9) >= MIN_BEYOND:
            chosen = percentile
    return chosen


def summarize(samples) -> dict:
    """``{"n", "p50", "tail_p", "tail"}`` for one timing series."""
    samples = np.asarray(samples, dtype=np.float64)
    summary = {"n": int(samples.size), "p50": median(samples), "tail_p": None, "tail": None}
    percentile = tail_percentile(samples.size)
    if percentile is not None:
        summary["tail_p"] = percentile
        summary["tail"] = float(np.percentile(samples, percentile))
    return summary

