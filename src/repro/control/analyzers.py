"""The Analyze stage: turn raw telemetry into named symptoms.

Each analyzer inspects one subscription's ring buffers in the knowledge
store and reports at most one :class:`Symptom` per tick.  Analyzers never
choose tactics — that mapping is the planner's job, driven by the policy —
so the same symptom can trigger different tactics in different policies.

Three production symptoms are detected:

* ``latency-violation`` — a percentile of recent per-slide latencies
  exceeds the policy's latency budget;
* ``candidate-blowup`` — the candidate set has grown far beyond its own
  recent baseline (the window shape makes absolute thresholds meaningless
  across algorithms, so the baseline is the subscription's own history);
* ``score-drift`` — the distribution of per-slide best scores has shifted
  between the older and newer halves of the telemetry window, detected
  with the same Mann-Whitney rank-sum test (:mod:`repro.stats.mannwhitney`)
  the paper's dynamic partitioner uses for partition sizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..stats.mannwhitney import normal_quantile, rank_sum
from .knowledge import Knowledge

#: Symptom kinds, in the order rules are usually written for them.  Every
#: kind is per-subscription, detected by an engine-attached controller.
SYMPTOM_KINDS = (
    "latency-violation",
    "candidate-blowup",
    "score-drift",
)


@dataclass(frozen=True)
class Symptom:
    """One detected anomaly on one subscription."""

    kind: str
    subscription: str
    #: Dimensionless badness (1.0 = exactly at threshold); planners may
    #: rank competing symptoms by it.
    severity: float
    evidence: Dict[str, object] = field(default_factory=dict)


class Analyzer:
    """Base class: analyze one subscription, report at most one symptom."""

    kind: str = "analyzer"

    def analyze(self, knowledge: Knowledge, subscription: str) -> Optional[Symptom]:
        raise NotImplementedError


class LatencyBudgetAnalyzer(Analyzer):
    """Detects per-slide latency percentiles above a budget."""

    kind = "latency-violation"

    def __init__(
        self,
        budget_seconds: float,
        percentile: float = 0.95,
        window: int = 32,
        min_samples: int = 16,
    ) -> None:
        if budget_seconds <= 0:
            raise ValueError(f"latency budget must be positive, got {budget_seconds}")
        self.budget_seconds = budget_seconds
        self.percentile = percentile
        self.window = window
        self.min_samples = min_samples

    def analyze(self, knowledge: Knowledge, subscription: str) -> Optional[Symptom]:
        if knowledge.sample_count(subscription) < self.min_samples:
            return None
        observed = knowledge.latency_percentile(
            subscription, self.percentile, self.window
        )
        if observed <= self.budget_seconds:
            return None
        return Symptom(
            kind=self.kind,
            subscription=subscription,
            severity=observed / self.budget_seconds,
            evidence={
                "percentile": self.percentile,
                "observed_seconds": observed,
                "budget_seconds": self.budget_seconds,
                "window": self.window,
            },
        )


class CandidateBlowupAnalyzer(Analyzer):
    """Detects a candidate set growing far beyond its own baseline.

    The baseline is the mean candidate count over the *older* portion of a
    rolling history tail; the signal is the mean over the most recent
    ``window`` slides.  Using the subscription's own history makes the
    detector algorithm-agnostic: a SAP candidate set of a few hundred and a
    MinTopK pool of thousands both have meaningful relative blowups.
    """

    kind = "candidate-blowup"

    def __init__(
        self, factor: float = 3.0, window: int = 32, min_samples: int = 96
    ) -> None:
        if factor <= 1.0:
            raise ValueError(f"blowup factor must exceed 1, got {factor}")
        self.factor = factor
        self.window = window
        self.min_samples = max(min_samples, 2 * window)

    def analyze(self, knowledge: Knowledge, subscription: str) -> Optional[Symptom]:
        if knowledge.sample_count(subscription) < self.min_samples:
            return None
        # A rolling baseline: only the last 2·window samples are read (the
        # window before the signal window), keeping idle-analysis cost flat.
        samples = knowledge.slides(subscription, 2 * self.window)
        recent = samples[-self.window :]
        older = samples[: -self.window]
        if not older:
            return None
        baseline = max(1.0, sum(s.candidates for s in older) / len(older))
        level = sum(s.candidates for s in recent) / len(recent)
        if level <= self.factor * baseline:
            return None
        return Symptom(
            kind=self.kind,
            subscription=subscription,
            severity=level / (self.factor * baseline),
            evidence={
                "recent_mean": level,
                "baseline_mean": baseline,
                "factor": self.factor,
                "window": self.window,
            },
        )


class ScoreDriftAnalyzer(Analyzer):
    """Detects a shift in the distribution of per-slide best scores.

    Compares the newest ``window`` top scores against the ``window`` before
    them with the two-sided rank-sum test — drift in either direction (a
    hot streak or a collapse) invalidates the partition-sizing assumptions
    the current configuration was chosen under.  Both directions come from
    a single pooled ranking: with equal sample sizes ``>= 10`` the test's
    normal approximation applies (exactly the regime
    :func:`repro.stats.mannwhitney.rank_sum_test` switches to), so one rank
    sum yields both directional statistics.

    Statistical significance alone is not enough: consecutive sliding
    windows overlap, so their best scores are strongly autocorrelated and
    a slow ratchet of the window maximum can order two adjacent samples
    perfectly without any real regime change.  ``min_shift`` therefore
    additionally requires a *practical* level shift — the medians of the
    two samples must differ by that relative fraction — before the
    symptom fires.  A refractory period of ``window`` slides after each
    detection stops one long regime change from being reported every tick.
    """

    kind = "score-drift"

    def __init__(
        self, alpha: float = 0.01, window: int = 16, min_shift: float = 0.05
    ) -> None:
        if window < 10:
            # Below ten the normal approximation of the rank-sum test (and
            # any drift verdict worth acting on) breaks down.
            raise ValueError(f"drift window must be at least 10, got {window}")
        if min_shift < 0:
            raise ValueError(f"min_shift must be >= 0, got {min_shift}")
        self.alpha = alpha
        self.window = window
        self.min_shift = min_shift
        self._quantile = normal_quantile(1.0 - alpha / 2.0)
        self._last_fired: Dict[str, int] = {}

    def analyze(self, knowledge: Knowledge, subscription: str) -> Optional[Symptom]:
        # Small margin over 2·window covers slides whose answers carried
        # no score (dropped from the series).
        series = knowledge.top_score_series(subscription, 2 * self.window + 8)
        if len(series) < 2 * self.window:
            return None
        latest = knowledge.latest_slide_index(subscription)
        fired = self._last_fired.get(subscription)
        if fired is not None and latest is not None and latest - fired < self.window:
            return None
        recent: List[float] = series[-self.window :]
        reference: List[float] = series[-2 * self.window : -self.window]
        w = self.window
        # Practical-significance gate first: it is cheaper than the rank
        # test and rejects the autocorrelated-maximum false positives.
        recent_median = sorted(recent)[w // 2]
        reference_median = sorted(reference)[w // 2]
        level = max(abs(recent_median), abs(reference_median))
        if level == 0.0:
            return None
        shift = abs(recent_median - reference_median) / level
        if shift < self.min_shift:
            return None
        r_recent, r_reference = rank_sum(recent, reference)
        mean = w * (2 * w + 1) / 2.0
        std = math.sqrt(w * w * (2 * w + 1) / 12.0)
        stat_up = (r_recent - mean) / std - self._quantile
        stat_down = (r_reference - mean) / std - self._quantile
        if stat_up <= 0.0 and stat_down <= 0.0:
            return None
        direction = "up" if stat_up > 0.0 else "down"
        statistic = max(stat_up, stat_down)
        if latest is not None:
            self._last_fired[subscription] = latest
        return Symptom(
            kind=self.kind,
            subscription=subscription,
            severity=1.0 + statistic,
            evidence={
                "direction": direction,
                "statistic": statistic,
                "median_shift": shift,
                "alpha": self.alpha,
                "window": self.window,
            },
        )
