"""Metric collection for the paper's three performance measures.

The evaluation section of the paper reports, for every algorithm:

* total running time over the whole stream,
* the average size of the candidate set, sampled every time the window
  slides (Appendix E),
* the memory consumed by the algorithm's own structures (Appendix F).

:class:`MetricsCollector` samples the latter two after every slide and keeps
simple aggregates so that benchmarks never retain per-slide lists for very
long streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..obs.quantiles import nearest_rank, nearest_ranks


def bytes_to_kb(value: float) -> float:
    """Convert a byte count to kilobytes (the unit used by the paper)."""
    return value / 1024.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list (fraction in [0, 1]).

    Alias for :func:`repro.obs.quantiles.nearest_rank`, the library's one
    percentile implementation.
    """
    return nearest_rank(values, fraction)


#: Cap on retained per-slide latency samples.  Once reached, the sample is
#: decimated (every other value dropped, stride doubled), so the collector
#: stays O(1) in stream length while the percentile estimates remain
#: representative.  Totals and maxima are exact regardless.
LATENCY_SAMPLE_CAP = 8192


@dataclass
class MetricsCollector:
    """Streaming aggregates of candidate counts, memory usage, and latency.

    The paper reports total running time; a production consumer also cares
    about the per-slide latency distribution (a window slide must be
    answered before the next one arrives), so the collector optionally
    retains a bounded sample of per-slide latencies and exposes p50/p95,
    plus exact running totals and maxima.
    """

    slides: int = 0
    candidate_total: float = 0.0
    candidate_max: int = 0
    memory_total: float = 0.0
    memory_max: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0
    latencies: List[float] = field(default_factory=list, repr=False)
    #: Values of the most recent slide, read by the control plane's monitor
    #: so telemetry never recomputes what the collector already sampled.
    last_candidates: int = 0
    last_memory_bytes: int = 0
    last_latency: float = 0.0
    _latency_seen: int = field(default=0, repr=False)
    _latency_stride: int = field(default=1, repr=False)

    def record(
        self,
        candidate_count: int,
        memory_bytes: int,
        latency_seconds: Optional[float] = None,
    ) -> None:
        self.slides += 1
        self.candidate_total += candidate_count
        self.candidate_max = max(self.candidate_max, candidate_count)
        self.memory_total += memory_bytes
        self.memory_max = max(self.memory_max, memory_bytes)
        self.last_candidates = candidate_count
        self.last_memory_bytes = memory_bytes
        if latency_seconds is not None:
            self.last_latency = latency_seconds
            self.latency_total += latency_seconds
            self.latency_max = max(self.latency_max, latency_seconds)
            self._latency_seen += 1
            if self._latency_seen % self._latency_stride == 0:
                self.latencies.append(latency_seconds)
                if len(self.latencies) >= LATENCY_SAMPLE_CAP:
                    self.latencies = self.latencies[::2]
                    self._latency_stride *= 2

    def copy(self) -> "MetricsCollector":
        """An independent snapshot (every field but the sample is an
        immutable scalar, so only the latency list needs copying)."""
        return replace(self, latencies=list(self.latencies))

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
    def latency_percentile(self, fraction: float) -> float:
        """Any percentile of the retained latency sample (0.0 when empty)."""
        return percentile(self.latencies, fraction) if self.latencies else 0.0

    def latency_percentiles(self, fractions) -> List[float]:
        """Several percentiles from one sort of the retained sample."""
        if not self.latencies:
            return [0.0] * len(fractions)
        return nearest_ranks(self.latencies, fractions)

    @property
    def median_latency(self) -> float:
        return self.latency_percentile(0.5)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(0.95)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(0.99)

    @property
    def max_latency(self) -> float:
        return self.latency_max
