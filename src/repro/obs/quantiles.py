"""The library's one percentile implementation.

Nearest-rank percentiles appear in two places with very different
inputs: the per-subscription :class:`~repro.core.metrics.MetricsCollector`
and the cluster merge layer (every shard's subscriptions at once).  They
must agree — a p95 computed one way on a shard and another way on the
facade would drift — so both call the helpers here and nothing else
implements a percentile.

The convention is nearest rank over the *sorted* values: for ``m``
values, fraction ``f`` selects the value at index ``round(f * (m - 1))``.

Per-slide latencies are kept in a *sketch* (after DDSketch, Masson et
al., VLDB 2019): a sparse ``{bucket: count}`` map of log buckets, each
reporting a value within :data:`SKETCH_ALPHA` (1%) relative of every
value in it.  The same rank rule over the bucket counts gives
percentiles within 1% of the exact ones.  A sketch's size depends on the
spread of the values, not on their number, and sketches merge exactly
by adding counts.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

#: The fractions every stat surface reports, in reporting order.
STANDARD_FRACTIONS = (0.5, 0.95, 0.99)

#: Relative accuracy of every percentile a latency sketch reports.
SKETCH_ALPHA = 0.01
#: Bucket growth factor: bucket ``i`` covers ``(GAMMA**(i-1), GAMMA**i]``.
SKETCH_GAMMA = (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)
#: A value ``x > 0`` falls in bucket ``ceil(ln(x) * SKETCH_INDEX_SCALE)``.
SKETCH_INDEX_SCALE = 1.0 / math.log(SKETCH_GAMMA)
#: The bucket of every value ``<= 0``; it sorts below every other bucket.
ZERO_BUCKET = float("-inf")

#: A latency sketch: bucket index (or :data:`ZERO_BUCKET`) -> count.
Sketch = Dict[float, int]


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    return nearest_ranks(values, (fraction,))[0]


def nearest_ranks(
    values: Sequence[float], fractions: Sequence[float]
) -> List[float]:
    """Several nearest-rank percentiles from one sort of the sample."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    ordered = sorted(values)
    last = len(ordered) - 1
    results: List[float] = []
    for fraction in fractions:
        _check_fraction(fraction)
        results.append(ordered[min(last, max(0, int(round(fraction * last))))])
    return results


def bucket_value(bucket: float) -> float:
    """The value a bucket reports, within 1% of every value in it."""
    if bucket == ZERO_BUCKET:
        return 0.0
    return 2.0 * SKETCH_GAMMA**bucket / (SKETCH_GAMMA + 1.0)


def merge_sketches(sketches: Iterable[Sketch]) -> Sketch:
    """One sketch of every value recorded in ``sketches`` (exact: counts add)."""
    merged: Sketch = {}
    for sketch in sketches:
        for bucket, count in sketch.items():
            merged[bucket] = merged.get(bucket, 0) + count
    return merged


def sketch_ranks(sketch: Sketch, fractions: Sequence[float], maximum: float) -> List[float]:
    """Nearest-rank percentiles of the values a sketch recorded (0.0 if none),
    capped at their exact ``maximum``."""
    ordered = sorted(sketch.items())
    last = sum(count for _, count in ordered) - 1
    results: List[float] = []
    for fraction in fractions:
        _check_fraction(fraction)
        rank, seen, bucket = int(round(fraction * last)), 0, ZERO_BUCKET
        for bucket, count in ordered:
            seen += count
            if seen > rank:
                break
        results.append(min(bucket_value(bucket), maximum))
    return results
