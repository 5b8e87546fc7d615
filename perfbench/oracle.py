"""Independent top-k oracle: answers recomputed straight from the input.

Uses no ``repro`` code.  Objects rank by ``(score, t)`` -- higher score
first, later arrival on ties -- which is the order the program documents.
The event with arrival order ``t`` is ``scores[t]``.  A count-based query
``(n, k, s)`` that joined when ``join`` events had been ingested reports
slide ``i`` over events ``[join + i*s, join + i*s + n)``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

Answer = Tuple[Tuple[float, int], ...]

#: Depth computed per window, so queries of one shape with different k
#: share one pass over the window.
MIN_DEPTH = 100


class Oracle:
    """Checks sampled answers and counts attempts and failures."""

    def __init__(self, scores: Sequence[float]) -> None:
        self.scores = scores
        self.checked = 0
        self.failed = 0
        self.messages: List[str] = []
        self._cache: Dict[Tuple[int, int], List[Tuple[float, int]]] = {}

    def topk(self, start: int, stop: int, k: int) -> Answer:
        """The best ``k`` of events ``[start, stop)``, best first."""
        cached = self._cache.get((start, stop))
        if cached is None or len(cached) < min(k, stop - start):
            scores = self.scores
            depth = max(k, MIN_DEPTH)
            cached = heapq.nlargest(depth, ((scores[t], t) for t in range(start, stop)))
            self._cache[(start, stop)] = cached
        return tuple(cached[:k])

    def expected(self, join: int, n: int, k: int, s: int, slide: int) -> Tuple[int, Answer]:
        """``(window_end, answer)`` of slide ``slide`` of a query."""
        start = join + slide * s
        return start + n - 1, self.topk(start, start + n, k)

    def check(self, label: str, join: int, n: int, k: int, s: int, slide: int,
              window_end: int, answer: Sequence[Sequence[float]]) -> bool:
        """Compare one delivered answer; records a failure on mismatch."""
        self.checked += 1
        want_end, want = self.expected(join, n, k, s, slide)
        got = tuple((float(score), int(t)) for score, t in answer)
        if window_end == want_end and got == want:
            return True
        self.fail(f"{label} slide {slide}: got end={window_end} {got[:3]}..., "
                  f"want end={want_end} {want[:3]}...")
        return False

    def check_sampled(self, label: str, join: int, n: int, k: int, s: int, stop: int,
                      got: Dict[int, tuple], every: int, low: int = 0) -> None:
        """Check every ``every``-th slide of a query over events
        ``[join, stop)``.  ``got`` maps a slide index to its delivered
        ``(window_end, answer)``.  A sampled slide whose window ends at or
        after ``low`` must have been delivered; earlier ones are checked
        only if they were."""
        for slide in sampled_slides((stop - join - n) // s, every):
            if slide in got:
                self.check(label, join, n, k, s, slide, *got[slide])
            elif join + slide * s + n - 1 >= low:
                self.missing(label, slide)

    def missing(self, label: str, slide: int) -> None:
        """A sampled answer that should exist was never delivered."""
        self.checked += 1
        self.fail(f"{label} slide {slide}: answer missing")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def sampled_slides(last_slide: int, every: int) -> range:
    """The slide indices checked for a query whose last slide is
    ``last_slide``: every ``every``-th one, starting at 0."""
    return range(0, last_slide + 1, every)
