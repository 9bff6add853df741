"""Order statistics used by every workload of the benchmark.

Timings are reported as a median plus the highest percentile that has
at least ``MIN_TAIL_SAMPLES`` samples beyond it, always with the sample
count; anything rarer is noise from a handful of samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reportable only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_needed(q: float) -> int:
    """Fewest samples for which percentile ``q`` has enough samples beyond it."""
    tail = (100.0 - q) / 100.0
    return math.ceil(MIN_TAIL_SAMPLES / tail - 1e-9)


def reportable(q: float, count: int) -> bool:
    """Whether percentile ``q`` of ``count`` samples may be reported."""
    return count >= samples_needed(q)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
