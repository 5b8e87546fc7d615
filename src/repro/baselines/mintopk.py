"""MinTopK (reference [25] of the paper, Yang et al., EDBT 2011).

MinTopK exploits the slide granularity ``s`` of a count-based window: at
any moment the stream objects seen so far overlap a bounded number of
current/future window positions, and only the top-k of the objects already
known for each such position can ever appear in its answer.  The algorithm
therefore maintains one *predicted result set* per overlapping window
position, all sharing a common candidate pool (the "super-top-k list" of
the original paper), plus the ``lbp`` lower-bound pointer of every position
(here: the minimum of its predicted set).

A newly arrived object is compared against the lower bound of every window
position it participates in: positions it beats adopt it and evict their
previous k-th object; an object no longer referenced by any position is
dropped from the candidate pool.  When a window position becomes current,
its predicted set *is* the exact answer, because by then every object of
that window has been seen.

The per-arrival cost is ``O(n/s + log k)``, matching the analysis in
Section 2.1 of the SAP paper: cheap when ``s`` is large, increasingly
expensive as ``s`` shrinks.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.exceptions import AlgorithmStateError, InvalidQueryError
from ..core.interface import (
    OBJECT_FOOTPRINT_BYTES,
    POINTER_FOOTPRINT_BYTES,
    ContinuousTopKAlgorithm,
)
from ..core.object import StreamObject
from ..core.query import TopKQuery
from ..core.result import TopKResult
from ..core.window import SlideEvent

RankKey = Tuple[float, int]


class MinTopK(ContinuousTopKAlgorithm):
    """Predicted-result-set maintenance for count-based sliding windows."""

    name = "MinTopK"

    def __init__(self, query: TopKQuery) -> None:
        super().__init__(query)
        if query.time_based:
            raise InvalidQueryError("MinTopK requires a count-based window")
        # Predicted result set per window position: a min-heap of rank keys.
        self._predicted: Dict[int, List[Tuple[RankKey, StreamObject]]] = {}
        # Shared candidate pool: rank key -> (object, reference count).
        self._pool: Dict[RankKey, List] = {}
        self._next_report = 0
        # Arrival order of window position 0's first object: a query that
        # joins mid-stream (or is restored) does not see the stream from t=0.
        self._origin: Optional[int] = None

    # ------------------------------------------------------------------
    # Shared-slide hooks: a window position's predicted top-k_max set
    # contains the true top-k of that position for every k <= k_max (both
    # are exact top-k of the same already-seen objects), so one shared
    # MinTopK core serves all co-windowed MinTopK queries; members slice
    # their prefix out of the position's answer when it becomes current
    # (the mechanics live in CoreSharedPlan).
    # ------------------------------------------------------------------
    def shared_plan_key(self) -> Hashable:
        return ("MinTopK",)

    def candidate_count(self) -> int:
        return len(self._pool)

    def memory_bytes(self) -> int:
        predicted_refs = sum(len(heap) for heap in self._predicted.values())
        lbp_pointers = len(self._predicted)
        return (
            len(self._pool) * OBJECT_FOOTPRINT_BYTES
            + (predicted_refs + lbp_pointers) * POINTER_FOOTPRINT_BYTES
        )

    # ------------------------------------------------------------------
    def fast_forward(self, slide_index: int) -> None:
        """Align the predicted-result-set clock for a mid-stream join.

        Without this, replaying a full window as one synthetic event would
        build predicted sets for window positions that were already
        reported (and will never be popped), leaking pool entries.
        """
        if self._pool or self._predicted:
            raise AlgorithmStateError(
                "cannot fast-forward a MinTopK instance that has state"
            )
        self._next_report = slide_index

    # ------------------------------------------------------------------
    def process_slide(self, event: SlideEvent) -> TopKResult:
        if self._origin is None:
            # The first event is a window fill (the initial one, or a
            # replayed window reported as slide ``event.index``), so its
            # first arrival sits at position ``event.index * s``.
            self._origin = event.arrivals[0].t - event.index * self.query.s
        for obj in event.arrivals:
            self._insert(obj)
        result = self._report(event)
        self._next_report = event.index + 1
        return result

    # ------------------------------------------------------------------
    def _windows_of(self, t: int) -> range:
        """Window positions that contain the object with arrival order ``t``.

        Position ``i`` covers arrival orders ``[i·s, i·s + n − 1]``,
        counted from the first event's origin (0 before any event).
        """
        n, s = self.query.n, self.query.s
        if self._origin is not None:
            t -= self._origin
        earliest = -((n - 1 - t) // s)  # integer ceil((t - n + 1) / s)
        first = max(self._next_report, earliest)
        last = t // s
        return range(first, last + 1)

    def _insert(self, obj: StreamObject) -> None:
        key = obj.rank_key
        k = self.query.k
        for window_index in self._windows_of(obj.t):
            heap = self._predicted.setdefault(window_index, [])
            if len(heap) < k:
                heapq.heappush(heap, (key, obj))
                self._retain(obj)
            elif key > heap[0][0]:
                evicted_key, _ = heapq.heapreplace(heap, (key, obj))
                self._retain(obj)
                self._release(evicted_key)

    def _retain(self, obj: StreamObject) -> None:
        record = self._pool.get(obj.rank_key)
        if record is None:
            self._pool[obj.rank_key] = [obj, 1]
        else:
            record[1] += 1

    def _release(self, key: RankKey) -> None:
        record = self._pool.get(key)
        if record is None:
            return
        record[1] -= 1
        if record[1] <= 0:
            del self._pool[key]

    # ------------------------------------------------------------------
    def _report(self, event: SlideEvent) -> TopKResult:
        heap = self._predicted.pop(event.index, [])
        objects = [obj for _, obj in heap]
        for key, _ in heap:
            self._release(key)
        return TopKResult.from_objects(event.index, event.window_end, objects)
