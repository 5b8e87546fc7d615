"""Synthetic streams: TIMER, TIMEU and a generic random walk.

The paper's two synthetic datasets are

* **TIMER** ("time-related"): scores are a deterministic function of the
  arrival order, ``F(o) = sin(π · o.t / period)``, so the stream alternates
  between long stretches of monotonically increasing and monotonically
  decreasing scores — the adversarial case for k-skyband style candidate
  maintenance.
* **TIMEU** ("time-unrelated"): scores are independent of arrival order.

The random-walk stream is an extra generator useful for examples and for
stress-testing the dynamic partitioner on locally-trending data.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

from ..core.object import StreamObject
from .source import StreamSource


class TimeCorrelatedStream(StreamSource):
    """The paper's TIMER dataset: ``F(o) = sin(π · t / period)``.

    Parameters
    ----------
    period:
        Half-period of the sine wave in number of objects.  The paper uses
        ``10^6``; benchmarks scale it down proportionally to the stream
        length so that every run sees several full oscillations.
    noise:
        Optional additive uniform noise amplitude; a tiny default keeps
        scores unique without changing the shape of the stream.
    seed:
        Seed of the noise generator.
    """

    name = "TIMER"

    def __init__(self, period: int = 1_000_000, noise: float = 1e-9, seed: int = 7) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.noise = noise
        self.seed = seed

    def objects(self, count: int) -> Iterator[StreamObject]:
        rng = random.Random(self.seed)
        for t in range(count):
            score = math.sin(math.pi * t / self.period)
            if self.noise:
                score += rng.uniform(-self.noise, self.noise)
            yield StreamObject(score=score, t=t)


class UncorrelatedStream(StreamSource):
    """The paper's TIMEU dataset: scores independent of arrival order."""

    name = "TIMEU"

    def __init__(self, low: float = 0.0, high: float = 1.0, seed: int = 11) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        self.low = low
        self.high = high
        self.seed = seed

    def objects(self, count: int) -> Iterator[StreamObject]:
        rng = random.Random(self.seed)
        for t in range(count):
            yield StreamObject(score=rng.uniform(self.low, self.high), t=t)


class DriftingStream(StreamSource):
    """Regime-switching stream: the score distribution changes abruptly.

    The stream alternates between two regimes every ``phase`` objects:

    * **calm** — scores uncorrelated with arrival order, uniform around
      ``low_mean`` (the TIMEU shape);
    * **hot** — scores time-correlated, ramping linearly across the phase
      around ``high_mean`` (the TIMER shape, shifted upward).

    Each switch is a genuine distribution change: the per-slide best scores
    jump between the two levels, which the dynamic partitioner's rank-sum
    test sees as unit-to-unit changes, and the correlated phases reward
    dynamic over equal partition sizing.
    """

    name = "DRIFT"

    def __init__(
        self,
        phase: int = 2_000,
        low_mean: float = 0.3,
        high_mean: float = 0.7,
        spread: float = 0.25,
        noise: float = 0.02,
        seed: int = 19,
    ) -> None:
        if phase <= 0:
            raise ValueError("phase must be positive")
        if spread <= 0:
            raise ValueError("spread must be positive")
        if high_mean <= low_mean:
            raise ValueError("high_mean must exceed low_mean")
        self.phase = phase
        self.low_mean = low_mean
        self.high_mean = high_mean
        self.spread = spread
        self.noise = noise
        self.seed = seed

    def objects(self, count: int) -> Iterator[StreamObject]:
        rng = random.Random(self.seed)
        for t in range(count):
            if (t // self.phase) % 2 == 0:
                score = self.low_mean + rng.uniform(-self.spread, self.spread)
            else:
                progress = (t % self.phase) / self.phase
                ramp = (2.0 * progress - 1.0) * self.spread
                score = self.high_mean + ramp + rng.uniform(-self.noise, self.noise)
            yield StreamObject(score=score, t=t)


class RandomWalkStream(StreamSource):
    """Scores following a bounded random walk (locally trending data)."""

    name = "RANDOM-WALK"

    def __init__(
        self,
        start: float = 100.0,
        step: float = 1.0,
        low: float = 0.0,
        high: float = 200.0,
        seed: int = 13,
    ) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        self.start = start
        self.step = step
        self.low = low
        self.high = high
        self.seed = seed

    def objects(self, count: int) -> Iterator[StreamObject]:
        rng = random.Random(self.seed)
        value = self.start
        for t in range(count):
            value += rng.uniform(-self.step, self.step)
            value = min(self.high, max(self.low, value))
            yield StreamObject(score=value, t=t)
