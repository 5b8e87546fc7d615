"""TBUI — the Threshold-Based k-Unit Identification algorithm (Algorithm 2).

TBUI labels every completed unit of a partition as a *k-unit* (it may hold
more than ``O(k)`` k-skyband objects, so its detailed scan is deferred and
given its own S-AVL) or a *non-k-unit* (at most ``O(k)`` of its objects can
ever matter, so remembering its single best object is enough).

The labelling never scans a unit twice.  A self-adapting threshold ``τ``
tracks the recent score level:

* during initialisation (and after every re-initialisation) ``τ`` is set to
  the ``ζ*``-th highest score of the ``2ζ*`` objects collected so far;
* a unit that finishes with at least ``k`` objects above ``τ`` demotes the
  *previous* unit to a non-k-unit (Theorem 2: the previous unit's weaker
  objects are dominated by ``ω(k)`` later objects);
* a unit that finishes with fewer than ``k`` objects above ``τ`` signals a
  downtrend: the previous unit keeps its k-unit label and ``τ`` is
  re-initialised;
* a buffer overflowing ``max(2ζ*, ζ_max)`` mid-unit signals an uptrend and
  refreshes ``τ`` immediately.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence

from ..stats.solvers import zeta_max, zeta_star


class TBUIState:
    """Threshold bookkeeping shared by the units of one stream."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.zeta_star = zeta_star(k)
        self.zeta_max = zeta_max(k)
        self.tau = -math.inf
        self.initializing = True
        self._above: List[float] = []
        self._refresh_count = 0

    # ------------------------------------------------------------------
    @property
    def above_count(self) -> int:
        """Number of current-unit objects above the threshold (``|U_v^τ|``)."""
        return len(self._above)

    @property
    def refresh_count(self) -> int:
        """How many times ``τ`` has been refreshed (statistics)."""
        return self._refresh_count

    # ------------------------------------------------------------------
    def observe_slice(self, scores: Sequence[float]) -> None:
        """Process a run of arrivals of the current unit, oldest first
        (lines 3-9 of Algorithm 2).

        The same as observing the scores one at a time: the scores at or
        above ``τ`` join the buffer up to the one that fills it to its
        refresh trigger, ``τ`` is refreshed there, and the rest of the run
        continues under the new threshold.
        """
        position, total = 0, len(scores)
        while position < total:
            tau = self.tau
            if self.initializing:
                # Initialisation refreshes when the buffer reaches 2ζ*.
                room = 2 * self.zeta_star - len(self._above)
            else:
                # An uptrend refreshes when it overflows max(2ζ*, ζ_max).
                room = max(2 * self.zeta_star, self.zeta_max) + 1 - len(self._above)
            rest = scores[position:] if position else scores
            hits = [score for score in rest if score >= tau]
            if len(hits) < room:
                self._above.extend(hits)
                return
            # The room-th hit fills the buffer to the trigger: find it, and
            # refresh there (an uptrend also restarts the initialisation).
            self._above.extend(hits[:room])
            for position in range(position, total):
                if scores[position] >= tau:
                    room -= 1
                    if not room:
                        break
            self._refresh()
            self.initializing = True
            position += 1

    def complete_unit(self) -> int:
        """Close the current unit (lines 10-16); return ``|U_v^τ|``.

        The caller uses the returned count to decide whether the previous
        unit must be demoted (count >= k) and whether the closed unit shows
        a downtrend (count < k).
        """
        count = len(self._above)
        if count >= self.k:
            if self.initializing and len(self._above) >= self.zeta_star:
                self._refresh()
            self.initializing = False
        else:
            # Downtrend: restart the threshold initialisation from scratch.
            self.tau = -math.inf
            self.initializing = True
        self._above = []
        return count

    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Set ``τ`` to the ``ζ*``-th highest buffered score and shrink the
        buffer to the scores above the new threshold."""
        if len(self._above) < self.zeta_star:
            return
        new_tau = heapq.nlargest(self.zeta_star, self._above)[-1]
        self._above = [score for score in self._above if score > new_tau]
        self.tau = new_tau
        self._refresh_count += 1
