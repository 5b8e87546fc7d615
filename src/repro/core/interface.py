"""Common interface of every continuous top-k algorithm in the library.

All algorithms — the SAP framework and the three competitors from the paper
(k-skyband, MinTopK, SMA) plus the brute-force oracle — consume the same
slide events produced by :mod:`repro.core.window` and emit one
:class:`~repro.core.result.TopKResult` per window position.  They also
expose the two bookkeeping quantities the paper's evaluation tracks:
the current candidate-set size and an estimate of the memory occupied by
the algorithm's own structures (excluding the raw stream).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from .query import TopKQuery
from .result import TopKResult
from .shared import SharedPlan, SharedSlide
from .window import SlideEvent, slides_for_query
from ..core.object import StreamObject

#: Approximate footprint of one candidate record (object reference, score,
#: arrival order, counters).  Matches the scale of the per-candidate memory
#: the paper reports (tens of bytes per candidate).
OBJECT_FOOTPRINT_BYTES = 32
#: Approximate footprint of one auxiliary pointer (lbp entries, stack cells,
#: tree nodes, grid cell headers).
POINTER_FOOTPRINT_BYTES = 16


class ContinuousTopKAlgorithm(ABC):
    """Base class of every continuous top-k algorithm."""

    #: Display name used in benchmark tables.
    name: str = "algorithm"

    def __init__(self, query: TopKQuery) -> None:
        self.query = query

    # ------------------------------------------------------------------
    @abstractmethod
    def process_slide(self, event: SlideEvent) -> TopKResult:
        """Consume one window movement and return the current top-k."""

    # ------------------------------------------------------------------
    # Shared-slide lifecycle (multi-query execution plane)
    # ------------------------------------------------------------------
    # Queries that share the window shape ``(n, s)`` differ only in ``k``,
    # so the expensive per-slide work (partition sealing, skyband
    # maintenance, per-position predicted sets) can be done once at the
    # largest ``k`` and sliced per query.  The engine's QueryGroup asks
    # each algorithm whether — and with whom — it can share, through the
    # three hooks below.  The defaults decline: the algorithm then simply
    # receives the raw slide event of each shared slide, which keeps every
    # baseline correct without any opt-in work.
    def shared_plan_key(self) -> Optional[Hashable]:
        """Key identifying which co-windowed algorithms can share one plan.

        Algorithms returning equal keys (and sharing a window shape) are
        bucketed into one :class:`~repro.core.shared.SharedPlan`.  ``None``
        (the default) opts out of sharing entirely.
        """
        return None

    def build_shared_plan(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> Optional[SharedPlan]:
        """Create the sharing plan for a bucket of same-key subscriptions.

        Called once, on the first member of the bucket, before any object
        is processed.  ``k_max`` overrides the plan's ``k`` (see
        :func:`repro.core.shared.plan_k_max`).  Returning ``None`` (the
        default) leaves every member running independently.
        """
        return None

    def process_shared_slide(self, shared: SharedSlide) -> TopKResult:
        """Consume one window movement prepared by a shared plan.

        The default implementation ignores the shared artifacts and
        processes the raw event — the correct fallback for algorithms
        that cannot exploit cross-query sharing.
        """
        return self.process_slide(shared.event)

    # ------------------------------------------------------------------
    # Mid-stream seating (state restores, rebalances, recovery)
    # ------------------------------------------------------------------
    # A captured query is seated at a slide boundary of a started group: a
    # fresh instance is built, fast-forwarded to the stream position, and
    # fed the live window contents as one synthetic slide event.  Both hooks
    # have safe defaults; algorithms with construction-time configuration
    # override ``respawn`` and algorithms with an internal slide clock
    # override ``fast_forward``.
    def respawn(self) -> "ContinuousTopKAlgorithm":
        """A fresh instance with this instance's configuration, empty state.

        The default rebuilds from the query alone, which is correct for
        every algorithm whose constructor signature is ``cls(query)``.

        This is also the serialization contract of the library
        (:mod:`repro.core.state`): the respawned instance must (a) carry
        *every* construction-time option, not just the query, and (b) be
        picklable, because transportable state is ``respawn() + window +
        slide index`` — a restored instance is fast-forwarded and fed the
        captured window as one synthetic slide, after which it must produce
        byte-identical results to the uninterrupted original.  Algorithms
        with extra constructor options must override this (see
        :meth:`repro.baselines.sma.SMATopK.respawn`).
        """
        return type(self)(self.query)

    def fast_forward(self, slide_index: int) -> None:
        """Align any internal slide clock to ``slide_index`` before a
        mid-stream join replays the live window.  The default is a no-op:
        most algorithms derive their position from the events.  Called on
        *fresh* instances only, by state restores (in process or across
        process boundaries)."""

    # ------------------------------------------------------------------
    def candidate_count(self) -> int:
        """Number of candidate objects currently maintained.

        This is the quantity reported in Tables 6 and 7 of the paper.  The
        default of zero is only suitable for algorithms without a candidate
        set (the brute-force oracle).
        """
        return 0

    def memory_bytes(self) -> int:
        """Estimated memory footprint of the algorithm's own structures."""
        return self.candidate_count() * OBJECT_FOOTPRINT_BYTES

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time description of the algorithm's state."""
        return {
            "algorithm": self.name,
            "query": self.query.describe(),
            "candidate_count": self.candidate_count(),
            "memory_bytes": self.memory_bytes(),
        }

    def close(self) -> None:
        """Release per-run resources.  The default implementation is a no-op
        hook; algorithms holding external resources override it."""

    # ------------------------------------------------------------------
    def run(self, objects: Iterable[StreamObject]) -> List[TopKResult]:
        """Reference driver: every answer of a whole stream, in order.

        The tests compare :class:`repro.engine.StreamEngine` subscriptions
        against this; streaming and measured runs go through the engine.
        """
        return [self.process_slide(event) for event in slides_for_query(objects, self.query)]
