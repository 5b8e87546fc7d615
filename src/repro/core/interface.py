"""Common interface of every continuous top-k algorithm in the library.

All algorithms — the SAP framework and the three competitors from the paper
(k-skyband, MinTopK, SMA) plus the brute-force oracle — consume the same
slide events produced by :mod:`repro.core.window` and emit one
:class:`~repro.core.result.TopKResult` per window position.  They also
expose the two bookkeeping quantities the paper's evaluation tracks:
the current candidate-set size and an estimate of the memory occupied by
the algorithm's own structures (excluding the raw stream).

The shared-slide hooks tell the engine's query groups which co-windowed
algorithms may share one plan core (``shared_plan_key``), which plan
serves them (``build_shared_plan``) and how a member slices its answer
from the core's (``process_shared_slide``).  The plan, not the member,
holds the shared state: a member of a shared plan stays idle, and its
own bookkeeping describes that idle instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from .query import TopKQuery
from .result import TopKResult
from .shared import CoreSharedPlan, SharedPlan, SharedSlide
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
    # Shared-slide hooks (multi-query execution plane)
    # ------------------------------------------------------------------
    # Queries that share the window shape ``(n, s)`` differ only in ``k``,
    # so the expensive per-slide work (partition sealing, skyband
    # maintenance, per-position predicted sets) can be done once at the
    # largest ``k`` and sliced per query.  The engine's QueryGroup answers
    # every member through a plan (:mod:`repro.core.shared`); these hooks
    # say with whom an algorithm can share one, and how.  The defaults
    # decline: an algorithm without a plan key runs in a plan of one over
    # its own instance, which keeps every baseline correct without any
    # opt-in work.  Plan state lives in the plan, never in the member.
    def shared_plan_key(self) -> Optional[Hashable]:
        """Key identifying which co-windowed algorithms can share one plan.

        Algorithms returning equal keys (and sharing a window shape) are
        bucketed into one :class:`~repro.core.shared.SharedPlan`.  ``None``
        (the default) opts out of sharing entirely.
        """
        return None

    def build_shared_plan(
        self, subscriptions: Sequence[object], k_max: Optional[int] = None
    ) -> SharedPlan:
        """Create the sharing plan for a bucket of same-key subscriptions.

        Called once, on the first member of the bucket, before any object
        is processed.  ``k_max`` overrides the plan's ``k`` (see
        :class:`~repro.core.shared.SharedPlan`).  The default runs one
        core, this instance's :meth:`spawn` at ``k_max``.
        """
        return CoreSharedPlan(subscriptions, k_max)

    def process_shared_slide(self, shared: SharedSlide) -> TopKResult:
        """This query's answer out of a core plan's prepared slide, stored
        in ``shared.answers`` under its ``k``.

        The prefix of the core's top-``k_max``: the plan calls this once
        per slide on one member of each distinct ``k``, and every member
        with that ``k`` receives the same answer; the core's answer is
        already best-first, so it is sliced, never re-sorted.
        """
        k = self.query.k
        result = shared.answers.get(k)
        if result is None:
            event = shared.event
            result = shared.answers[k] = TopKResult(
                slide_index=event.index,
                window_end=event.window_end,
                objects=shared.window_topk[:k],
            )
        return result

    # ------------------------------------------------------------------
    # Mid-stream seating (state restores, rebalances, recovery)
    # ------------------------------------------------------------------
    # A captured query is seated in a started group: a fresh instance is
    # built, fast-forwarded to the group's last slide, and fed the last
    # reported window as one synthetic slide event.  The hooks
    # have safe defaults; algorithms with construction-time configuration
    # override ``spawn`` and algorithms with an internal slide clock
    # override ``fast_forward``.
    def respawn(self) -> "ContinuousTopKAlgorithm":
        """A fresh instance with this instance's configuration, empty state.

        This is the serialization contract of the library
        (:mod:`repro.core.state`): the respawned instance must (a) carry
        *every* construction-time option, not just the query, and (b) be
        picklable, because transportable state is ``respawn() + window +
        slide index`` — a restored instance is fast-forwarded and fed the
        captured window as one synthetic slide, after which it must produce
        byte-identical results to the uninterrupted original.  It is
        :meth:`spawn` at this instance's own query.
        """
        return self.spawn(self.query)

    def spawn(self, query: TopKQuery) -> "ContinuousTopKAlgorithm":
        """A fresh instance with this instance's configuration at ``query``.

        A core plan runs its leading member's spawn at the ``k_max``
        query.  The default rebuilds from the query alone, which is
        correct for every algorithm whose constructor signature is
        ``cls(query)``; algorithms with extra constructor options must
        override this (see :meth:`repro.baselines.sma.SMATopK.spawn`).
        """
        return type(self)(query)

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
