"""Small statistics the benchmark reports: percentiles, geomeans, errors."""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer would make it the reading of one or two outliers.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value (q in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly above the nearest-rank *q* percentile."""
    return count - max(1, math.ceil(q * count - 1e-9)) if count else 0


def min_samples_for_tail(q: float, beyond: int = TAIL_SAMPLES) -> int:
    """The fewest samples that leave *beyond* of them above the *q* percentile."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (an observed value, never an average of two)."""
    return percentile(values, 0.5)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mape_pct(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute percentage error of *predicted* against *actual*."""
    if len(actual) != len(predicted) or not actual:
        raise ValueError("mape needs equal, non-empty sequences")
    return 100.0 * sum(abs(p - a) / abs(a) for a, p in zip(actual, predicted)) / len(actual)
