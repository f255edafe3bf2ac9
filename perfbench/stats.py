"""Summary statistics for operation timings.

A timing is reported as its median plus the highest percentile of a fixed
ladder that still leaves at least ten samples above it (nearest-rank
definition), together with the sample count. Below 20 samples not even the
median leaves ten above it, so no tail percentile is reported.
"""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_ABOVE = 10


def nearest_rank(sorted_values, p: float) -> tuple[float, int]:
    """(value, samples strictly after its rank) for the p-th percentile."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values) -> tuple[str, float] | None:
    """The highest ladder percentile with at least MIN_ABOVE samples above
    it, as (label, value); None when the sample is too small."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value, above = nearest_rank(ordered, p)
        if above >= MIN_ABOVE:
            return f"p{p:g}", value
    return None


def summarize(values) -> dict:
    """{'p50': median, 'n': count} plus the tail percentile when defined."""
    out = {"p50": statistics.median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out.setdefault(tail[0], tail[1])
    return out
