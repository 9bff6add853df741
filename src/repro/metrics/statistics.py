"""Statistics used by the paper's evaluation.

* 95% confidence intervals on the mean STP/ANTT across random workload
  mixes (Figure 3: how the interval shrinks as more mixes are added),
* Spearman rank correlation between design-space rankings (Figure 7:
  does a small random sample rank the six LLC configurations the same
  way as the reference?), and
* a bootstrap confidence interval helper used by the stress-workload
  analysis.

The Student-t critical value behind every interval is computed here,
exactly, from the standard library and numpy alone, so an interval
depends only on its samples and never on which optional packages the
environment happens to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Sequence

import numpy as np


class StatisticsError(ValueError):
    """Raised for invalid statistical inputs."""


_NEWTON_TOLERANCE = 1e-10
_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a sample mean."""

    mean: float
    lower: float
    upper: float
    confidence: float
    num_samples: int

    @property
    def halfwidth(self) -> float:
        return (self.upper - self.lower) / 2.0

    @property
    def halfwidth_pct_of_mean(self) -> float:
        """Half-width as a fraction of the mean (the paper's '10% interval')."""
        if self.mean == 0:
            return float("inf")
        return self.halfwidth / abs(self.mean)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _critical_value(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value: the ``t`` with P(|T| < t) = confidence.

    ``dof`` is a positive integer (``n - 1`` for ``n`` samples), so the
    two-sided mass A(t) has a finite closed form: Abramowitz & Stegun
    26.7.3 for odd and 26.7.4 for even ``dof``.  One and two degrees of
    freedom invert in closed form.  Otherwise Newton's method solves
    A(t) = confidence with ``2 * pdf`` as the derivative, starting from
    the normal quantile.  That start lies below the root and A is
    concave for t > 0, so the iterates rise monotonically onto it.  The
    result matches the committed quantile table in ``tests/data`` to
    about 1e-13 relative; its cost grows linearly with ``dof``.
    """
    if dof == 1:
        # tan(pi * c / 2), written around 1 - c to stay accurate near c = 1.
        return 1.0 / math.tan(math.pi * (1.0 - confidence) / 2.0)
    if dof == 2:
        return confidence * math.sqrt(2.0 / (1.0 - confidence * confidence))
    odd = dof % 2
    # Series coefficients: products of (2j)/(2j+1) for odd dof and of
    # (2j-1)/(2j) for even dof, one per power of cos^2(theta).
    j = np.arange(1, dof // 2, dtype=np.float64)
    coefficients = np.cumprod(np.concatenate(([1.0], (2 * j - 1 + odd) / (2 * j + odd))))
    powers = np.arange(dof // 2, dtype=np.float64)
    log_density_scale = (
        math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    )
    t = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    for _ in range(_NEWTON_MAX_STEPS):
        # log cos^2(theta) with tan(theta) = t / sqrt(dof); raising it to the
        # k-th power through exp keeps every term accurate for large dof.
        log_cos2 = -math.log1p(t * t / dof)
        series = float((coefficients * np.exp(powers * log_cos2)).sum())
        sin = t / math.sqrt(dof + t * t)
        if odd:
            theta = math.atan(t / math.sqrt(dof))
            mass = (theta + sin * math.exp(0.5 * log_cos2) * series) * (2.0 / math.pi)
        else:
            mass = sin * series
        slope = 2.0 * math.exp(log_density_scale + (dof + 1) / 2 * log_cos2)
        step = (confidence - mass) / slope
        t += step
        # Newton converges quadratically: once a step is this small the
        # remaining error is far below rounding.
        if abs(step) <= _NEWTON_TOLERANCE * t:
            return t
    raise StatisticsError(
        f"Student-t quantile did not converge (confidence={confidence}, dof={dof})"
    )


def confidence_interval(samples: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``."""
    if not 0 < confidence < 1:
        raise StatisticsError(f"confidence must be in (0, 1), got {confidence}")
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size < 2:
        raise StatisticsError("at least two samples are needed for a confidence interval")
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(values.size))
    critical = _critical_value(confidence, values.size - 1)
    halfwidth = critical * stderr
    return ConfidenceInterval(
        mean=mean,
        lower=mean - halfwidth,
        upper=mean + halfwidth,
        confidence=confidence,
        num_samples=int(values.size),
    )


def mean_confidence_halfwidth_pct(
    samples: Sequence[float], confidence: float = 0.95
) -> float:
    """Confidence-interval half-width as a percentage of the mean."""
    return 100.0 * confidence_interval(samples, confidence).halfwidth_pct_of_mean


def rank_of(values: Sequence[float], higher_is_better: bool = True) -> List[int]:
    """Rank positions of ``values`` (0 = best).

    Ties are broken by original order, which is adequate for the small
    design spaces ranked here.
    """
    if not values:
        raise StatisticsError("cannot rank an empty sequence")
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=higher_is_better)
    ranks = [0] * len(values)
    for position, index in enumerate(order):
        ranks[index] = position
    return ranks


def spearman_rank_correlation(first: Sequence[float], second: Sequence[float]) -> float:
    """Spearman rank correlation coefficient between two value series.

    The coefficient is 1.0 when both series rank the items identically
    and -1.0 when they rank them in exactly opposite order (the paper's
    Figure 7 uses it to compare design-space rankings).
    """
    if len(first) != len(second):
        raise StatisticsError("both series must have the same length")
    n = len(first)
    if n < 2:
        raise StatisticsError("at least two items are needed for a rank correlation")
    ranks_first = np.asarray(_average_ranks(first), dtype=np.float64)
    ranks_second = np.asarray(_average_ranks(second), dtype=np.float64)
    first_centered = ranks_first - ranks_first.mean()
    second_centered = ranks_second - ranks_second.mean()
    denominator = float(
        np.sqrt((first_centered**2).sum()) * np.sqrt((second_centered**2).sum())
    )
    if denominator == 0:
        # One of the series is constant; correlation is undefined, treat as perfect
        # agreement only if both are constant.
        return 1.0 if np.allclose(ranks_first, ranks_second) else 0.0
    return float((first_centered * second_centered).sum() / denominator)


def _average_ranks(values: Sequence[float]) -> List[float]:
    """Fractional (average) ranks, handling ties the standard way."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and values[indexed[j + 1]] == values[indexed[i]]:
            j += 1
        average_rank = (i + j) / 2.0
        for k in range(i, j + 1):
            ranks[indexed[k]] = average_rank
        i = j + 1
    return ranks


def bootstrap_confidence_interval(
    samples: Sequence[float],
    confidence: float = 0.95,
    num_resamples: int = 2_000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap percentile confidence interval for the sample mean."""
    if not 0 < confidence < 1:
        raise StatisticsError(f"confidence must be in (0, 1), got {confidence}")
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size < 2:
        raise StatisticsError("at least two samples are needed for a bootstrap interval")
    rng = np.random.default_rng(seed)
    resample_means = np.array(
        [
            values[rng.integers(0, values.size, size=values.size)].mean()
            for _ in range(num_resamples)
        ]
    )
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(resample_means, [alpha, 1.0 - alpha])
    return ConfidenceInterval(
        mean=float(values.mean()),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
        num_samples=int(values.size),
    )
