"""The one-pass k-skyband baseline (reference [19] of the paper).

The algorithm keeps every k-skyband object of the window as a candidate.
When a new object arrives, the dominance counters of all lower-ranked
candidates are incremented (the new object arrived later, hence dominates
them); candidates whose counter reaches ``k`` are discarded for good.  This
avoids window re-scans entirely but pays ``O(n_d)`` per arrival, where
``n_d`` is the number of candidates the new object dominates — the cost the
paper identifies as the weakness of one-pass approaches, most visible on
streams whose scores are anti-correlated with arrival order (TIMER).

Objects are processed one at a time: unlike MinTopK, the plain k-skyband
baseline does not exploit the slide granularity ``s`` (Appendix E of the
paper makes the same distinction).
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from ..core.interface import OBJECT_FOOTPRINT_BYTES, ContinuousTopKAlgorithm
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.window import SlideEvent
from ..structures.avl import AVLTree

RankKey = Tuple[float, int]


class _SkybandEntry:
    __slots__ = ("obj", "dominators")

    def __init__(self, obj: StreamObject) -> None:
        self.obj = obj
        self.dominators = 0


class KSkybandTopK(ContinuousTopKAlgorithm):
    """Maintain all k-skyband objects of the window."""

    name = "k-skyband"

    def __init__(self, query: TopKQuery) -> None:
        super().__init__(query)
        self._candidates = AVLTree()

    # ------------------------------------------------------------------
    # Shared-slide hooks: the k-skyband of the window at k_max is a
    # superset of the skyband at any smaller k, and its top-k prefix *is*
    # the window's exact top-k.  One shared skyband core therefore serves
    # every co-windowed k-skyband query; members just slice the answer
    # (the mechanics live in CoreSharedPlan).
    # ------------------------------------------------------------------
    def shared_plan_key(self) -> Hashable:
        return ("k-skyband",)

    def candidate_count(self) -> int:
        return len(self._candidates)

    def memory_bytes(self) -> int:
        return len(self._candidates) * OBJECT_FOOTPRINT_BYTES

    # ------------------------------------------------------------------
    def process_slide(self, event: SlideEvent) -> TopKResult:
        for obj in event.expirations:
            self._candidates.remove(obj.rank_key)
        for obj in event.arrivals:
            self._insert(obj)
        best = [entry.obj for _, entry in self._candidates.items_descending()][: self.query.k]
        return TopKResult.from_objects(event.index, event.window_end, best)

    def _insert(self, obj: StreamObject) -> None:
        # Every existing candidate ranked below the new object is dominated
        # by it; those reaching k dominators leave the skyband forever.
        doomed: List[RankKey] = []
        for key, entry in self._candidates.items():
            if key >= obj.rank_key:
                break
            entry.dominators += 1
            if entry.dominators >= self.query.k:
                doomed.append(key)
        for key in doomed:
            self._candidates.remove(key)
        self._candidates.insert(obj.rank_key, _SkybandEntry(obj))
