"""Seeded input generation, independent of the program under test.

The benchmark never uses ``repro.streams``: a change to the program can
therefore never change the workload.  Scores alternate between phases of
:data:`PHASE` events: uncorrelated uniform scores (like the paper's
TIMEU) and a noisy upward trend restarted at 0.5 (like TIMER,
time-correlated), so both the cheap and the candidate-heavy regimes of
SAP occur in every measured segment.  Every workload measures segments
whose length is a multiple of ``2 * PHASE``, so each segment holds both
kinds in equal parts wherever it starts.
"""

from __future__ import annotations

import random
from array import array

PHASE = 1_000


class ScoreStream:
    """The score of event ``t`` for one seed, generated on demand."""

    def __init__(self, seed: int, salt: str = "scores") -> None:
        self._rng = random.Random(f"{salt}:{seed}")
        self.scores = array("d")
        self._level = 0.5

    def ensure(self, count: int) -> array:
        """Extend the stream to at least ``count`` events; return it."""
        rng = self._rng
        scores = self.scores
        while len(scores) < count:
            t = len(scores)
            if (t // PHASE) % 2 == 0:
                scores.append(rng.random())
                continue
            if t % PHASE == 0:
                self._level = 0.5
            self._level += 0.001 + rng.gauss(0.0, 0.002)
            scores.append(self._level)
        return scores

    def __len__(self) -> int:
        return len(self.scores)
