"""Percentiles, repeat summaries and the compare verdict of ``bench_e2e``."""

from __future__ import annotations

import statistics
from typing import Any, Sequence


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """The *p*-th percentile (0–100) of already sorted values, linearly
    interpolated between closest ranks."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    rank = (len(sorted_values) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def summarize(values: Sequence[float]) -> dict[str, Any]:
    """Median and quartiles over repeats (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them; a single value is its
    own quartiles)."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def spread(summary: dict[str, Any]) -> float:
    """Interquartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(base: dict[str, Any], new: dict[str, Any], better: str,
            bound: float) -> tuple[str, float]:
    """Compare two repeat summaries of one metric.

    Returns ``(label, ratio)`` with ``ratio = new median / base median``.
    ``worse``: the new median is worse than the base by more than *bound*
    (as a share of the base).  ``unresolved``: it is not, but either side's
    spread is wider than the bound, so "unchanged" cannot be claimed.
    """
    ratio = new["median"] / base["median"]
    worse_by = (1.0 - ratio) if better == "higher" else (ratio - 1.0)
    if worse_by > bound:
        return "worse", ratio
    if max(spread(base), spread(new)) > bound:
        return "unresolved", ratio
    return "within-bound", ratio
