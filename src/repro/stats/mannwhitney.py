"""Mann-Whitney / Wilcoxon rank-sum test (the paper's "WRT").

Section 2.2 of the paper uses the rank-sum test to decide whether the top-k
objects of a candidate partition tend to have larger scores than the high
score objects of a reference interval.  The test needs two ingredients:

* the rank sum ``R1`` of the first sample within the pooled ordering, and
* an acceptance region ``[T_low, T_up]``; the paper reads the bounds off a
  rank-sum table for small samples and switches to the normal approximation
  when both samples contain at least ten objects.

We do not ship a scanned table.  Instead the exact null distribution of the
rank sum is computed by dynamic programming (feasible for the small sample
sizes the dynamic partitioner uses, ``k ≤ 10`` and ``ηk`` of a few dozen)
and the normal approximation is used for larger samples, exactly mirroring
Equation (2) of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as _np

#: Upper quantile of the standard normal distribution for alpha = 0.05
#: (two-sided), i.e. ``u_{1 - alpha/2}``.
DEFAULT_ALPHA = 0.05


def normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Uses the Acklam rational approximation, accurate to roughly 1e-9 over
    the open unit interval, which is far more precision than the test needs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")

    # Coefficients of the Acklam approximation.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)

    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def rank_sum(sample1: Sequence[float], sample2: Sequence[float]) -> Tuple[float, float]:
    """Rank sums ``(R1, R2)`` of the two samples in the pooled ordering.

    Ties receive mid-ranks, the standard convention for the rank-sum test:
    a value with ``below`` smaller pooled values and ``through`` pooled
    values no larger ranks ``(below + through + 1) / 2``.  The sums are
    sums of half-integers, exact in float64, and ``R2`` is the rest of
    ``1 + 2 + ... + (n1 + n2)``.
    """
    first = _np.asarray(sample1, dtype=_np.float64)
    pooled = _np.concatenate((first, _np.asarray(sample2, dtype=_np.float64)))
    pooled.sort()
    below = _np.searchsorted(pooled, first, "left")
    through = _np.searchsorted(pooled, first, "right")
    r1 = float((below + through + 1).sum()) / 2.0
    size = len(pooled)
    return r1, size * (size + 1) / 2.0 - r1


@lru_cache(maxsize=256)
def _rank_sum_distribution(n1: int, n2: int) -> Tuple[Dict[int, int], int]:
    """Exact null distribution of the rank sum of a sample of size ``n1``.

    Returns a mapping ``rank_sum -> number of arrangements`` and the total
    number of arrangements ``C(n1+n2, n1)``.  Computed by the classic
    dynamic program over "choose j of the first i ranks".
    """
    total_ranks = n1 + n2
    # counts[j] maps achievable rank sums using j chosen ranks to a count.
    counts: List[Dict[int, int]] = [dict() for _ in range(n1 + 1)]
    counts[0][0] = 1
    for rank in range(1, total_ranks + 1):
        for chosen in range(min(rank, n1), 0, -1):
            source = counts[chosen - 1]
            target = counts[chosen]
            for value, ways in source.items():
                target[value + rank] = target.get(value + rank, 0) + ways
    total = math.comb(total_ranks, n1)
    return counts[n1], total


def upper_critical_value(n1: int, n2: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Smallest rank-sum value ``T_up`` with ``P(R1 >= T_up) <= alpha/2``.

    ``R1`` is the rank sum of the sample of size ``n1`` under the null
    hypothesis that both samples come from the same distribution.
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError("both sample sizes must be positive")
    distribution, total = _rank_sum_distribution(n1, n2)
    threshold = alpha / 2.0
    tail = 0
    # Walk the distribution from the largest achievable rank sum downwards.
    for value in sorted(distribution, reverse=True):
        tail += distribution[value]
        if tail / total > threshold:
            return float(value + 1)
    return float(min(distribution))  # pragma: no cover - degenerate alpha


def lower_critical_value(n1: int, n2: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Largest rank-sum value ``T_low`` with ``P(R1 <= T_low) <= alpha/2``."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("both sample sizes must be positive")
    distribution, total = _rank_sum_distribution(n1, n2)
    threshold = alpha / 2.0
    tail = 0
    for value in sorted(distribution):
        tail += distribution[value]
        if tail / total > threshold:
            return float(value - 1)
    return float(max(distribution))  # pragma: no cover - degenerate alpha


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of the rank-sum comparison of two samples.

    ``statistic`` is the value compared against zero by the dynamic
    partitioner: positive means sample 1 tends to contain larger values
    than sample 2 (the hypothesis of equal distributions is rejected in the
    upper direction).
    """

    r1: float
    r2: float
    statistic: float
    first_is_larger: bool
    used_normal_approximation: bool


def rank_sum_test(
    sample1: Sequence[float],
    sample2: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
    normal_threshold: int = 10,
) -> MannWhitneyResult:
    """Run the paper's WRT evaluation (Equation 2).

    * Small samples (``len(sample1) < normal_threshold``): the statistic is
      ``R1 − T_up(|S1|, |S2|)``.
    * Larger samples: the statistic is the standardised rank sum minus the
      normal quantile ``u_{1−α/2}``.

    A positive statistic means the first sample tends to have larger values.
    """
    if not sample1 or not sample2:
        raise ValueError("both samples must be non-empty")

    n1, n2 = len(sample1), len(sample2)
    r1, r2 = rank_sum(sample1, sample2)

    if n1 < normal_threshold:
        critical = upper_critical_value(n1, n2, alpha)
        statistic = r1 - critical
        used_normal = False
    else:
        mean = n1 * (n1 + n2 + 1) / 2.0
        std = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
        quantile = normal_quantile(1.0 - alpha / 2.0)
        statistic = (r1 - mean) / std - quantile
        used_normal = True

    return MannWhitneyResult(
        r1=r1,
        r2=r2,
        statistic=statistic,
        first_is_larger=statistic > 0.0,
        used_normal_approximation=used_normal,
    )
