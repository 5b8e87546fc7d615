"""Metric collection for the paper's three performance measures.

The evaluation section of the paper reports, for every algorithm:

* total running time over the whole stream,
* the average size of the candidate set, sampled every time the window
  slides (Appendix E),
* the memory consumed by the algorithm's own structures (Appendix F).

:class:`MetricsCollector` samples the latter two after every slide and keeps
simple aggregates, and per-slide latencies in a log-bucket sketch
(:mod:`repro.obs.quantiles`), so it never grows with the stream.

:class:`MetricsCohort` is how plan members pay for metrics: every member
of a plan records the same sample per slide, so members that joined the
plan together with one history share one collector, recorded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, log
from typing import List, Optional, Sequence

from ..obs.quantiles import (
    SKETCH_INDEX_SCALE,
    ZERO_BUCKET,
    Sketch,
    merge_sketches,
    nearest_rank,
    sketch_ranks,
)


def bytes_to_kb(value: float) -> float:
    """Convert a byte count to kilobytes (the unit used by the paper)."""
    return value / 1024.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list (fraction in [0, 1]).

    Alias for :func:`repro.obs.quantiles.nearest_rank`, the library's one
    percentile implementation.
    """
    return nearest_rank(values, fraction)


@dataclass
class MetricsCollector:
    """Streaming aggregates of candidate counts, memory usage, and latency.

    The paper reports total running time; a production consumer also cares
    about the per-slide latency distribution (a window slide must be
    answered before the next one arrives), so the collector also keeps a
    sketch of every per-slide latency, from which it reports percentiles
    within 1% of the exact ones, plus exact running totals and maxima.
    """

    slides: int = 0
    candidate_total: float = 0.0
    candidate_max: int = 0
    memory_total: float = 0.0
    memory_max: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0
    #: Every recorded latency, as a :data:`~repro.obs.quantiles.Sketch`.
    latency_buckets: Sketch = field(default_factory=dict, repr=False)

    def record(
        self,
        candidate_count: int,
        memory_bytes: int,
        latency_seconds: Optional[float] = None,
    ) -> None:
        # Runs once per cohort per slide: plain comparisons, not max().
        self.slides += 1
        self.candidate_total += candidate_count
        if candidate_count > self.candidate_max:
            self.candidate_max = candidate_count
        self.memory_total += memory_bytes
        if memory_bytes > self.memory_max:
            self.memory_max = memory_bytes
        if latency_seconds is not None:
            self.latency_total += latency_seconds
            if latency_seconds > self.latency_max:
                self.latency_max = latency_seconds
            # The sketch bucket (repro.obs.quantiles), computed inline.
            if latency_seconds > 0.0:
                bucket = ceil(log(latency_seconds) * SKETCH_INDEX_SCALE)
            else:
                bucket = ZERO_BUCKET
            buckets = self.latency_buckets
            buckets[bucket] = buckets.get(bucket, 0) + 1

    def copy(self) -> "MetricsCollector":
        """An independent snapshot (every field but the sketch is an
        immutable scalar, so only the bucket map needs copying)."""
        return replace(self, latency_buckets=dict(self.latency_buckets))

    def merged(self, later: "MetricsCollector") -> "MetricsCollector":
        """A new collector holding these aggregates followed by ``later``'s,
        as one collector that recorded both would (totals add, maxima take
        the larger, sketch counts add)."""
        return MetricsCollector(
            self.slides + later.slides,
            self.candidate_total + later.candidate_total,
            max(self.candidate_max, later.candidate_max),
            self.memory_total + later.memory_total,
            max(self.memory_max, later.memory_max),
            self.latency_total + later.latency_total,
            max(self.latency_max, later.latency_max),
            merge_sketches((self.latency_buckets, later.latency_buckets)),
        )

    @property
    def average_candidates(self) -> float:
        return self.candidate_total / self.slides if self.slides else 0.0

    @property
    def average_memory_bytes(self) -> float:
        return self.memory_total / self.slides if self.slides else 0.0

    @property
    def average_memory_kb(self) -> float:
        return bytes_to_kb(self.average_memory_bytes)

    # ------------------------------------------------------------------
    # Per-slide latency distribution
    # ------------------------------------------------------------------
    @property
    def latency_count(self) -> int:
        """How many latencies were recorded."""
        return sum(self.latency_buckets.values())

    def latency_percentiles(self, fractions: Sequence[float]) -> List[float]:
        """Several percentiles from one walk of the sketch, each within 1%
        of the exact nearest-rank percentile (0.0 when empty)."""
        return sketch_ranks(self.latency_buckets, fractions, self.latency_max)

    @property
    def median_latency(self) -> float:
        return self.latency_percentiles((0.5,))[0]

    @property
    def p95_latency(self) -> float:
        return self.latency_percentiles((0.95,))[0]

    @property
    def max_latency(self) -> float:
        return self.latency_max


class MetricsCohort:
    """The shared metrics of plan members that joined together.

    Every member of a plan records the same sample for a slide (the
    plan's candidate count, its amortised memory and the member's share
    of its prepare time), so members that joined one plan at the same
    slide with the same history hold the same aggregates: one collector,
    ``live``, records the slide once for all of them.  ``baseline`` is
    that shared history (a restored record's aggregates, else empty) and
    is never mutated; ``collect`` is the members' ``collect_metrics``
    (without it only slides are counted).
    """

    __slots__ = ("baseline", "live", "collect")

    def __init__(self, baseline: MetricsCollector, collect: bool) -> None:
        self.baseline = baseline
        self.live = MetricsCollector()
        self.collect = collect

    def total(self) -> MetricsCollector:
        """A member's aggregates: the baseline followed by ``live``."""
        return self.baseline.merged(self.live)
