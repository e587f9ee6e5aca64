"""Exact order statistics over per-request samples.

Percentiles here come from the sorted samples themselves, never from a
bucketed histogram: the program's ``serve.latency_ns`` histogram clamps
at its last bucket edge, so its tail reads the clamp, not the data.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence, Tuple

#: A reported tail must leave at least this many samples above it.
TAIL_BEYOND = 10
#: The percentiles a tail is chosen from. A fixed ladder keeps the
#: percentile of a workload the same from run to run (it depends only
#: on the sample count), and a rung like p95 over 600 samples leaves
#: about 30 above it, so the tail does not hinge on a handful of
#: outliers as the single sample ten from the top would.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted samples: the smallest
    sample with at least ``pct`` percent of the samples at or below it."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct * len(ordered) / 100 - 1e-9))
    return float(ordered[rank - 1])


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Tuple[float, float]:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    ``beyond`` samples strictly above it: returns ``(value, percentile)``.
    """
    ordered = sorted(values)
    best = None
    for pct in TAIL_LADDER:
        value = percentile(ordered, pct)
        if len(ordered) - bisect.bisect_right(ordered, value) < beyond:
            break
        best = (value, pct)
    if best is None:
        raise ValueError(f"{len(ordered)} samples leave fewer than "
                         f"{beyond} beyond the median")
    return best
