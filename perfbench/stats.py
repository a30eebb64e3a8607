"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def percentile(values: Sequence[float], q: float, weights: Optional[Sequence[int]] = None) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it.  ``weights[i]`` counts ``values[i]`` as that
    many samples."""
    if weights is None:
        weights = [1] * len(values)
    if not values or len(weights) != len(values) or sum(weights) <= 0:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = max(math.ceil(q / 100 * sum(weights)), 1)
    seen = 0
    for value, weight in sorted(zip(values, weights)):
        seen += weight
        if seen >= rank:
            return value
    raise AssertionError("unreachable")


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(math.ceil(q / 100 * n), 1)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
