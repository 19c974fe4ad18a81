"""Summary statistics with the benchmark's sample-count rules.

A percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it: with fewer, one outlier decides the value and two runs of the
same code disagree.  Percentiles use the nearest-rank definition.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    """The median; raises on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """``(value, samples beyond it)`` of the nearest-rank ``pct`` percentile."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(pct / 100.0 * len(ordered))))
    return float(ordered[rank - 1]), len(ordered) - rank


def percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct`` percentile, or ``None`` when too few samples lie beyond it."""
    value, beyond = nearest_rank(values, pct)
    return value if beyond >= MIN_BEYOND else None


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` of the highest percentile the samples support."""
    for pct in TAIL_PERCENTILES:
        value = percentile(values, pct)
        if value is not None:
            return pct, value
    return None

